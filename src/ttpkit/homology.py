"""Graded free complexes over a presented algebra.

A complex stores one free module per homological position (as a list of
generator degrees) and one matrix of homogeneous algebra elements per
differential.  Elements of a free left module are row vectors with
coefficients acting on the left, and a differential with matrix D sends
v to v D; the composite of D_{i+1} followed by D_i is the matrix product
D_{i+1} D_i.  Restricting a differential to a single internal degree over
the normal-word basis turns every homological question into an exact
rank computation: exactness_profile reads the degreewise homology of a
complex off those ranks.  Every complex here is one of left modules; the
Gorenstein test reads the quadratic dual algebra (koszulreg) instead of
dualizing a resolution.

The minimal resolution of the trivial module grows one such complex in
place, and counts before it eliminates.  It is exact below the position
it works on, so the rank of d_i in degree j is the kernel dimension of
d_{i-1} there, and the kernel dimension K of d_i is plain arithmetic on
module dimensions.  The image of the partial (i+1)-st differential, built
from the generators of lower degree, lies in that kernel; its rows are
echelonized only until the rank reaches K.  At position 1 that is done
only in the degrees of the relations: Tor_2 is the space of minimal
relations I/(T_+ I + I T_+) (Polishchuk-Positselski, Quadratic Algebras,
ch. 1; Anick, Trans. AMS 296, 1986), so position 2 gets generators only
there, and in every other degree the image reaches K.  Only where it
stays below K is a generator born, and only there is the kernel of d_i
computed: its basis is the identity on its free columns, so the image is
echelonized again in kernel coordinates (an image column's entries at the
free rows), the basis vectors at the coordinates where no image vector
ends are the new generators, and no kernel vector is eliminated.  At the
last position only the count is taken.  Each degree-j component matrix
is built at most once: the partial (i+1)-st one, extended by the new
generators' columns, is carried in row form to the next position.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .freealg import NCPoly
from .scalars import EchelonSpan, ScalarMatrix


class GradedComplex:
    """Finite complex of graded free modules with NCPoly differentials.

    shifts[i] lists the generator degrees of the i-th module, diffs[i]
    (for i >= 1) is the rank_i x rank_{i-1} matrix of the map from
    position i to position i-1.
    """

    def __init__(self, pres, shifts, diffs):
        self.pres = pres
        self.shifts = [list(s) for s in shifts]
        self.diffs = [None] + list(diffs)  # diffs[i]: position i -> i-1
        # (completed system, tuple of shifts, degree) -> graded basis; a grown
        # position or a further completion gives a new key
        self._bases = {}
        if len(self.diffs) != len(self.shifts):
            raise ValueError("need exactly one differential per positive position")
        for i in range(1, len(self.shifts)):
            mat = self.diffs[i]
            if len(mat) != len(self.shifts[i]):
                raise ValueError(f"differential {i} has wrong number of rows")
            for row in mat:
                if len(row) != len(self.shifts[i - 1]):
                    raise ValueError(f"differential {i} has wrong number of columns")
        self._check_entry_degrees()

    def _check_entry_degrees(self):
        for i in range(1, len(self.shifts)):
            for r, row in enumerate(self.diffs[i]):
                for c, entry in enumerate(row):
                    if entry.is_zero():
                        continue
                    want = self.shifts[i][r] - self.shifts[i - 1][c]
                    if not entry.is_homogeneous() or entry.degree() != want:
                        raise ValueError(
                            f"entry ({r},{c}) of differential {i} must be "
                            f"homogeneous of degree {want}"
                        )

    def __len__(self):
        return len(self.shifts)

    def component_matrix(self, i, j):
        """Scalar matrix of the i-th differential in internal degree j.

        Columns index the degree-j basis of position i (pairs of generator
        and normal word), rows the degree-j basis of position i-1; the
        matrix acts on coordinate columns of position i.
        """
        rs = self._system_for_degree(j)
        src, dst = self._basis(rs, i, j), self._basis(rs, i - 1, j)
        dst_index = {key: n for n, key in enumerate(dst)}
        field = self.pres.field
        # an empty target still gives one zero row: a 1 x len(src) matrix
        rows = [{} for _ in range(max(len(dst), 1))]
        mat = self.diffs[i]
        for col, (gen, word) in enumerate(src):
            for tgt, entry in enumerate(mat[gen]):
                if entry.is_zero():
                    continue
                # word times entry, its letters folded onto word: each (tgt, w) is hit once per column
                for w, c in rs.multiply(word, entry).items():
                    rows[dst_index[(tgt, w)]][col] = c
        return ScalarMatrix.from_sparse(field, rows, len(src))

    def component_dim(self, i, j):
        """Dimension of position i in internal degree j: the sum of dim A_{j-s} over its shifts s."""
        degrees = [j - s for s in self.shifts[i] if s <= j]
        if not degrees:
            return 0
        hilbert = self._system_for_degree(j).hilbert(max(degrees))
        return sum(hilbert[d] for d in degrees)

    def _basis(self, rs, i, j):
        """The degree-j basis of position i over rs, built once per system and shifts."""
        key = (rs, tuple(self.shifts[i]), j)
        basis = self._bases.get(key)
        if basis is None:
            basis = self._bases[key] = _graded_basis(rs, self.shifts[i], j)
        return basis

    def _system_for_degree(self, j):
        low = min((s for shifts in self.shifts for s in shifts), default=0)
        return self.pres.completed(max(j - low, 0))


def _graded_basis(rs, shifts, j):
    """(generator, normal word) pairs spanning internal degree j."""
    out = []
    degrees = [j - s for s in shifts]
    top = max(degrees, default=-1)
    words = rs.normal_words(top) if top >= 0 else []
    for gen, deg in enumerate(degrees):
        if deg < 0:
            continue
        for w in words[deg]:
            out.append((gen, w))
    return out


def exactness_profile(cx, maxdeg, mindeg=0):
    """Degreewise homology of the complex by component ranks.

    The result maps (position, internal degree) to the homology dimension,
    zeros omitted; a resolution of the trivial module k has {(0, 0): 1},
    its H_0 = k.
    """
    homology = {}
    n = len(cx) - 1
    for j in range(mindeg, maxdeg + 1):
        dims = [cx.component_dim(i, j) for i in range(n + 1)]
        ranks = [None] * (n + 1)
        for i in range(1, n + 1):
            ranks[i] = cx.component_matrix(i, j).rank() if dims[i] and dims[i - 1] else 0
        for i in range(n + 1):
            incoming = ranks[i + 1] if i + 1 <= n else 0
            kernel = dims[i] - (ranks[i] if i >= 1 else 0)
            h = kernel - incoming
            if h:
                homology[(i, j)] = h
    return homology


class BettiTable:
    """Counts b[i, j] of degree-j generators at homological position i."""

    def __init__(self, entries=None):
        self.entries = {k: v for k, v in (entries or {}).items() if v}

    def b(self, i, j):
        return self.entries.get((i, j), 0)

    def items(self):
        return sorted(self.entries.items())

    def off_diagonal(self):
        return sorted((i, j) for i, j in self.entries if i != j)

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.entries == other.entries

    def __repr__(self):
        body = ", ".join(f"b[{i},{j}]={v}" for (i, j), v in self.items())
        return f"BettiTable({body})"


class MinimalResolution(NamedTuple):
    betti: BettiTable
    complex: GradedComplex
    truncated_at_position: bool  # a nonzero kernel remained past max_i
    maxdeg: int


class NotMinimal(ValueError):
    """A relation has a term of length 0 or 1: a generator or the whole algebra is redundant."""


def minimal_resolution(pres, max_i, maxdeg):
    """Minimal graded free resolution of the trivial module, truncated.

    One complex grows in place, position by position and, within a
    position, degree by degree.  It counts before it eliminates.  Position
    i is reached once the complex is exact below it through maxdeg, so the
    rank of d_i in degree j is dim ker d_{i-1} there, and rank-nullity gives
    K = dim ker d_i in every degree with no matrix built (_kernel_dims);
    position 0 starts from the augmentation, whose kernel is A_j for j >= 1.
    Where K is 0 nothing is built or eliminated.  Otherwise the image of the
    partial next differential, the span of A_+ times the kernel in lower
    degrees, is echelonized row by row until its rank reaches K
    (_image_rank).  At position 1 this is skipped outside the degrees of
    the nonzero relations: Tor_2 is the space of minimal relations
    I/(T_+ I + I T_+) (Polishchuk-Positselski, Quadratic Algebras, ch. 1;
    Anick, Trans. AMS 296, 1986), so position 2 gets generators only in
    relation degrees.  Only where the rank stays below K is a generator
    born, and only there is the kernel of d_i taken: its basis vectors are
    taken in order, each becoming a new generator when it lies outside the
    image and the generators taken before it.  That is decided in kernel
    coordinates (_outside_image): an image column's coordinates are its
    entries at the kernel's free rows, so the elimination is as wide as the
    kernel, and the kernel vectors themselves are never eliminated.  At
    position max_i only the count is taken: a nonzero K there marks the
    resolution truncated.  Every differential entry lands in the radical.
    That needs every relation term to be a word of length at least 2 (the
    letters minimal generators, the algebra nonzero); NotMinimal otherwise.
    Generators of internal degree > maxdeg are invisible at this bound, and
    the Betti table does not count them.

    Each degree-j matrix is built at most once.  The partial d_{i+1} built
    for the image count is kept in row form and extended by one column per
    new generator: such a generator has only the empty word in degree j, so
    its column is its kernel vector, and it comes last in basis order.  The
    result is the full degree-j matrix of d_{i+1}, carried to position i+1
    for its kernel; a matrix not carried (those of d_1, any d_{i+1} in a
    degree where K was 0, and d_2 outside the relation degrees) is built
    only when a kernel is taken from it.
    """
    for rel in pres.relations:
        if any(len(word) < 2 for word in rel.terms):
            raise NotMinimal(f"relation {rel} has a term of length below 2, so the presentation is not minimal")
    # Tor_2 is the space of minimal relations: position 2 gets generators only here
    relation_degrees = {rel.degree() for rel in pres.relations if not rel.is_zero()}
    rs = pres.completed(maxdeg)
    field, alphabet = pres.field, pres.alphabet
    letters = [(k,) for k in range(len(alphabet))]
    d1 = [[NCPoly(alphabet, field, {w: field.one()})] for w in letters]
    cx = GradedComplex(pres, [[0], [alphabet.degree(w) for w in letters]], [d1])
    truncated = False
    # below[j]: dim ker d_{i-1} in degree j, at i = 1 that of the augmentation A -> k
    below = [0] + rs.hilbert(maxdeg)[1:]
    # mats[j]: the carried degree-j matrix of the differential leaving position i
    mats = {}
    for i in range(1, max_i + 1):
        dims = _kernel_dims(cx, i, below, maxdeg)
        if i == max_i:
            # generators past max_i exist exactly where a kernel is left
            truncated = any(dims)
            break
        shifts, rows = [], []
        cx.shifts.append(shifts)
        cx.diffs.append(rows)
        nxt = {}
        for j, K in enumerate(dims):
            if not K or (i == 1 and j not in relation_degrees):
                continue
            # the partial next differential in row form; new generators' columns join below
            partial = cx.component_matrix(i + 1, j)
            image, ncols = partial.rows, partial.ncols
            rank = _image_rank(image, K, field)
            if rank < K:
                mat = mats[j] if j in mats else cx.component_matrix(i, j)
                free, kernel = mat.kernel_rows()
                assert len(free) == K, "the kernel dimension differs from its count"
                # image columns in kernel coordinates: only the free rows are read
                cols = [{} for _ in range(ncols)]
                for r in free:
                    for c, a in image[r].items():
                        cols[c][r] = a
                born = _outside_image(free, cols, field)
                assert len(born) == K - rank, "the new generators differ from their count"
                basis = cx._basis(rs, i, j)
                for k in born:
                    vec = kernel[k]
                    row = _devectorize(vec, basis, cx.shifts[i], alphabet, field)
                    for entry, s in zip(row, cx.shifts[i]):
                        assert entry.is_zero() or entry.degree() == j - s > 0, "entry outside the radical"
                    shifts.append(j)
                    rows.append(row)
                    # a new generator has only the empty word in degree j: its column is vec
                    for r, a in vec.items():
                        image[r][ncols] = a
                    ncols += 1
            nxt[j] = ScalarMatrix.from_sparse(field, image, ncols)
        mats, below = nxt, dims
        if not shifts:
            # an empty position ends the resolution
            cx.shifts.pop()
            cx.diffs.pop()
            break
    betti = Counter((i, s) for i, degrees in enumerate(cx.shifts) for s in degrees if s <= maxdeg)
    return MinimalResolution(BettiTable(betti), cx, truncated, maxdeg)


def _kernel_dims(cx, i, below, maxdeg):
    """dim ker d_i in degrees 0..maxdeg, where below[j] = dim ker d_{i-1} in degree j.

    The complex is exact at position i-1 through maxdeg, so d_i maps onto
    ker d_{i-1} and rank-nullity leaves dim P_{i,j} - below[j].
    """
    return [cx.component_dim(i, j) - below[j] for j in range(maxdeg + 1)]


def _image_rank(rows, bound, field):
    """Rank of the span of the sparse payload rows, counted no further than bound."""
    span = EchelonSpan(field)
    for row in rows:
        if span.rank == bound:
            break
        if row:
            span.insert(row)
    return span.rank


def _outside_image(free, cols, field):
    """Indices k, increasing, of the kernel basis vectors that are new generators.

    The columns cols lie in the kernel.  Its basis is the identity on the
    free columns, so a column's coordinate k is its entry at free[k].  With
    n = len(free) and coordinate k renumbered n-1-k, the span's
    smallest-column pivots sit at the largest k: basis vector k lies
    outside the span of the image and of vectors 0..k-1 exactly when no
    image vector ends at coordinate k.
    """
    n = len(free)
    coord = {c: n - 1 - k for k, c in enumerate(free)}
    image = EchelonSpan(field)
    for col in cols:
        if image.rank == n:
            break
        image.insert({coord[c]: a for c, a in col.items() if c in coord})
    return [k for k in range(n) if n - 1 - k not in image.rows]


def _devectorize(vec, basis, shifts, alphabet, field):
    """Row of module elements of a sparse payload row over basis."""
    row = [NCPoly(alphabet, field) for _ in shifts]
    for col, a in vec.items():
        gen, word = basis[col]
        row[gen].terms[word] = a
    return row


def build_q_complex(g, h):
    """The explicit length-3 complex over the x,y,w presentation."""
    from .families import build_Tgh

    pres = build_Tgh(g, h)
    field, A = pres.field, pres.alphabet
    x = NCPoly.letter(A, field, "x")
    y = NCPoly.letter(A, field, "y")
    w = NCPoly.letter(A, field, "w")
    zero = NCPoly.zero(A, field)
    d1 = [[x], [y], [w]]
    d2 = [
        [-x, w - y.scale(g), y],
        [zero, y.scale(h), w],
        [-y, x, zero],
    ]
    d3 = [[y.scale(h), w, -x.scale(h)]]
    return GradedComplex(pres, [[0], [1, 1, 1], [2, 2, 2], [3]], [d1, d2, d3])


def build_p_complex(g, max_i):
    """The eventually periodic complex of the degenerate (h = 0) family."""
    from .families import build_Tgh

    field = g.field
    pres = build_Tgh(g, field.zero())
    A = pres.alphabet
    x = NCPoly.letter(A, field, "x")
    y = NCPoly.letter(A, field, "y")
    w = NCPoly.letter(A, field, "w")
    zero = NCPoly.zero(A, field)
    d1 = [[x], [y], [w]]
    d2 = [
        [-x, w - y.scale(g), y],
        [zero, zero, w],
        [-y, x, zero],
    ]
    d3 = [
        [zero, w, zero],
        [w * y, -y * y, -(w * x)],
    ]
    d4 = [[w, zero], [y * y, w]]
    tail = [[w, zero], [y * y, -w]]
    shifts = [[0], [1, 1, 1], [2, 2, 2], [3, 4], [4, 5]]
    diffs = [d1, d2, d3, d4]
    while len(shifts) - 1 < max_i:
        shifts.append([s + 1 for s in shifts[-1]])
        diffs.append(tail)
    return GradedComplex(pres, shifts, diffs)
