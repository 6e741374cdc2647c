"""Graded free complexes over a presented algebra.

A complex stores one free module per homological position (as a list of
generator degrees) and one matrix of homogeneous algebra elements per
differential.  Elements of a free left module are row vectors with
coefficients acting on the left, and a differential with matrix D sends
v to v D; the composite of D_{i+1} followed by D_i is the matrix product
D_{i+1} D_i.  Restricting a differential to a single internal degree over
the normal-word basis turns every homological question into an exact
rank computation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .freealg import NCPoly
from .rewrite import NotCompleted
from .scalars import EchelonSpan, Scalar, ScalarMatrix


class GradedComplex:
    """Finite complex of graded free modules with NCPoly differentials.

    shifts[i] lists the generator degrees of the i-th module, diffs[i]
    (for i >= 1) is the rank_i x rank_{i-1} matrix of the map from
    position i to position i-1.  side is "left" or "right".
    """

    def __init__(self, pres, shifts, diffs, side="left"):
        self.pres = pres
        self.shifts = [list(s) for s in shifts]
        self.diffs = [None] + list(diffs)  # diffs[i]: position i -> i-1
        self.side = side
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
        src = _graded_basis(rs, self.shifts[i], j)
        dst = _graded_basis(rs, self.shifts[i - 1], j)
        dst_index = {key: n for n, key in enumerate(dst)}
        field = self.pres.field
        # an empty target still gives one zero row: a 1 x len(src) matrix
        rows = [{} for _ in range(max(len(dst), 1))]
        mat = self.diffs[i]
        for col, (gen, word) in enumerate(src):
            carrier = NCPoly(self.pres.alphabet, field, {word: field.one()})
            for tgt, entry in enumerate(mat[gen]):
                if entry.is_zero():
                    continue
                prod = carrier * entry if self.side == "left" else entry * carrier
                # each (tgt, w) is hit once per column: one entry, nothing to add up
                for w, c in rs.reduce(prod).terms.items():
                    rows[dst_index[(tgt, w)]][col] = c.payload
        return ScalarMatrix.from_sparse(field, rows, len(src))

    def component_dim(self, i, j):
        rs = self._system_for_degree(j)
        return len(_graded_basis(rs, self.shifts[i], j))

    def _system_for_degree(self, j):
        low = min((s for shifts in self.shifts for s in shifts), default=0)
        return self.pres.completed(max(j - low, 0))

    def compose_check(self, maxdeg):
        """Every entry of every consecutive product reduces to zero."""
        rs = self.pres.completed(maxdeg)
        for i in range(2, len(self)):
            hi, mid, lo = self.shifts[i], self.shifts[i - 1], self.shifts[i - 2]
            for r in range(len(hi)):
                for c in range(len(lo)):
                    acc = NCPoly.zero(self.pres.alphabet, self.pres.field)
                    for k in range(len(mid)):
                        a, b = self.diffs[i][r][k], self.diffs[i - 1][k][c]
                        if a.is_zero() or b.is_zero():
                            continue
                        acc = acc + (a * b if self.side == "left" else b * a)
                    if acc.is_zero():
                        continue
                    if acc.degree() > maxdeg:
                        raise NotCompleted(
                            f"product entry has degree {acc.degree()} > bound {maxdeg}"
                        )
                    if not rs.reduce(acc).is_zero():
                        return False
        return True


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


@dataclass
class ExactnessReport:
    """Homology dimensions per (position, internal degree), zeros omitted."""

    homology: dict
    maxdeg: int
    augmented: bool

    def clean(self):
        return not self.homology

    def __repr__(self):
        if not self.homology:
            return f"exact through degree {self.maxdeg}"
        body = ", ".join(f"H_{i}[{j}]={d}" for (i, j), d in sorted(self.homology.items()))
        return f"homology: {body}"


def exactness_profile(cx, augment, maxdeg, mindeg=0):
    """Degreewise homology of the complex by component ranks.

    With augment set, position 0 must be the free module of rank one in
    degree zero and the map onto the trivial module is appended, so a
    resolution reports no homology at all.
    """
    if augment and cx.shifts[0] != [0]:
        raise ValueError("augmentation needs a single degree-0 generator at position 0")
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
            if i == 0 and augment:
                kernel -= 1 if j == 0 else 0
            h = kernel - incoming
            if h:
                homology[(i, j)] = h
    return ExactnessReport(homology, maxdeg, augment)


class BettiTable:
    """Counts b[i, j] of degree-j generators at homological position i."""

    def __init__(self, entries=None):
        self.entries = {k: v for k, v in (entries or {}).items() if v}

    def b(self, i, j):
        return self.entries.get((i, j), 0)

    def items(self):
        return sorted(self.entries.items())

    def row(self, i):
        return {j: v for (i2, j), v in self.entries.items() if i2 == i}

    def max_position(self):
        return max((i for i, _ in self.entries), default=0)

    def is_diagonal(self):
        return all(i == j for i, j in self.entries)

    def off_diagonal(self):
        return sorted((i, j) for i, j in self.entries if i != j)

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.entries == other.entries

    def __repr__(self):
        body = ", ".join(f"b[{i},{j}]={v}" for (i, j), v in self.items())
        return f"BettiTable({body})"


@dataclass
class MinimalResolution:
    betti: BettiTable
    complex: GradedComplex
    truncated_at_position: bool  # a nonzero kernel remained past max_i
    maxdeg: int


class NotMinimal(ValueError):
    """A relation has a term of length 0 or 1: a generator or the whole algebra is redundant."""


def minimal_resolution(pres, max_i, maxdeg):
    """Minimal graded free resolution of the trivial module, truncated.

    Kernels are taken degree by degree; new generators are kernel elements
    independent of the span of lower-degree kernel elements multiplied by
    the generators, so every differential entry lands in the radical.
    That needs every relation term to be a word of length at least 2 (the
    letters minimal generators, the algebra nonzero); NotMinimal otherwise.
    """
    for rel in pres.relations:
        if any(len(word) < 2 for word in rel.terms):
            raise NotMinimal(f"relation {rel} has a term of length below 2, so the presentation is not minimal")
    rs = pres.completed(maxdeg)
    field = pres.field
    alphabet = pres.alphabet
    shifts = [[0]]
    diffs = []
    betti = {(0, 0): 1}
    # position 1: the generators of the augmentation ideal
    gens = [NCPoly(alphabet, field, {(i,): field.one()}) for i in range(len(alphabet))]
    cx = None
    current = [[g] for g in gens]  # rows of d_1
    shifts.append([alphabet.degree((i,)) for i in range(len(alphabet))])
    diffs.append(current)
    for s in shifts[1]:
        betti[(1, s)] = betti.get((1, s), 0) + 1
    truncated = False
    for i in range(1, max_i):
        cx = GradedComplex(pres, shifts, diffs)
        new_rows, new_shifts = _kernel_generators(cx, i, maxdeg)
        if not new_rows:
            break
        shifts.append(new_shifts)
        diffs.append(new_rows)
        for s in new_shifts:
            betti[(i + 1, s)] = betti.get((i + 1, s), 0) + 1
    else:
        # did the last computed position still have kernel generators?
        cx = GradedComplex(pres, shifts, diffs)
        rows, _ = _kernel_generators(cx, max_i, maxdeg)
        truncated = bool(rows)
    return MinimalResolution(BettiTable(betti), GradedComplex(pres, shifts, diffs), truncated, maxdeg)


def _kernel_generators(cx, i, maxdeg):
    """Minimal generators of ker(d_i) in internal degrees <= maxdeg.

    Kernels are computed degree by degree; a kernel vector becomes a new
    generator exactly when it adds a pivot over the span of the letter
    multiples of the previous degree's full kernel (the radical part).
    The choice is deterministic.  Generators of internal degree > maxdeg
    are invisible at this bound.
    """
    pres = cx.pres
    rs = pres.completed(maxdeg)
    field = pres.field
    alphabet = pres.alphabet
    letters = [NCPoly(alphabet, field, {(k,): field.one()}) for k in range(len(alphabet))]
    new_rows = []
    new_shifts = []
    kernel_rows_prev = {}  # weight offset -icity: previous degrees' full kernel bases
    min_shift = min(cx.shifts[i])
    max_weight = max(alphabet.weights)
    for j in range(min_shift, maxdeg + 1):
        basis = _graded_basis(rs, cx.shifts[i], j)
        if not basis:
            kernel_rows_prev[j] = []
            continue
        index = {key: n for n, key in enumerate(basis)}
        span = EchelonSpan(field)
        for k, letter in enumerate(letters):
            jj = j - alphabet.weights[k]
            for row in kernel_rows_prev.get(jj, []):
                shifted = [entry if entry.is_zero() else rs.reduce(letter * entry) for entry in row]
                span.insert(_vectorize(shifted, index))
        _, kernel = cx.component_matrix(i, j).rank_kernel()
        full_rows = []
        for vec in kernel.transpose().rows:
            row = _devectorize(vec, basis, cx.shifts[i], alphabet, field)
            full_rows.append(row)
            if span.insert(vec):
                new_rows.append(row)
                new_shifts.append(j)
        kernel_rows_prev[j] = full_rows
        for jj in list(kernel_rows_prev):
            if jj < j - max_weight + 1:
                del kernel_rows_prev[jj]
    for row, s in zip(new_rows, new_shifts):
        for c, entry in enumerate(row):
            if not entry.is_zero():
                assert entry.degree() == s - cx.shifts[i][c] > 0, "entry outside the radical"
    return new_rows, new_shifts


def _vectorize(row_elements, index):
    """Sparse payload row of a row of module elements over the basis index."""
    return {index[(gen, w)]: c.payload for gen, poly in enumerate(row_elements) for w, c in poly.terms.items()}


def _devectorize(vec, basis, shifts, alphabet, field):
    """Row of module elements of a sparse payload row over basis."""
    row = [NCPoly(alphabet, field) for _ in shifts]
    for col, a in vec.items():
        gen, word = basis[col]
        row[gen].terms[word] = Scalar(field, a)
    return row


def euler_check(pres, betti, maxdeg):
    """Alternating Betti convolution against the Hilbert profile is delta_0."""
    dims = pres.hilbert(maxdeg)
    for m in range(maxdeg + 1):
        acc = 0
        for (i, j), b in betti.items():
            if j <= m:
                acc += (-1) ** i * b * dims[m - j]
        if acc != (1 if m == 0 else 0):
            return False
    return True


def dualize(cx, length=None):
    """Contravariant dual complex as right modules, positions reversed.

    Position 0 of the dual is the old top module with negated shifts; the
    k-th dual differential is the old (length - k + 1)-st matrix acting on
    the other side.
    """
    n = (length if length is not None else len(cx) - 1)
    shifts = [[-s for s in cx.shifts[i]] for i in range(n, -1, -1)]
    diffs = []
    for k in range(1, n + 1):
        old = cx.diffs[n - k + 1]
        # old: position n-k+1 -> n-k; dual: old target becomes source
        rows = len(cx.shifts[n - k])
        cols = len(cx.shifts[n - k + 1])
        diffs.append([[old[c][r] for c in range(cols)] for r in range(rows)])
    side = "right" if cx.side == "left" else "left"
    return GradedComplex(cx.pres, shifts, diffs, side)


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
