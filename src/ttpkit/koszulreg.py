"""Quadratic duals, Koszulity, Yoneda presentations and regularity.

Koszulity is decided to a homological bound by inspecting the Betti
support of the minimal resolution; the quadratic dual supplies the
numerical cross-check H(t) * H_dual(-t) = 1.  For the elliptic family the
degenerate (h = 0) Yoneda algebra is verified against an explicit
bigraded presentation.  The paper's decision table lives here and only
here: asreg_decide_2d (C), asreg_decide (T) and elliptic_decide (T(g,h))
read classified data only and each return one verdict carrying Koszulity,
AS-regularity and the deciding clause.  The Gorenstein certificate runs on
any quadratic presentation: a Koszul algebra is AS-Gorenstein exactly when
its quadratic dual is Frobenius (Smith 1996; Lu, Palmieri, Wu and Zhang
2008), a finite test of the dual's top degree and of the ranks of its
multiplication pairings, invariant under graded isomorphism and field
extension.
"""

from __future__ import annotations

from typing import NamedTuple

from .classify import Witness
from .families import Presentation, build_T, build_Tgh
from .freealg import Alphabet, NCPoly
from .homology import minimal_resolution
from .scalars import CharTwo, EchelonSpan, ScalarMatrix


class NotQuadratic(Exception):
    pass


def _pair_index(n):
    return [(i, j) for i in range(n) for j in range(n)]


def quadratic_dual(pres):
    """Dual presentation on the reversed primed alphabet.

    The dual relation space is the orthogonal complement of the relation
    span under the pairing matching the word u v with the dual word u' v'.
    """
    n = len(pres.alphabet)
    if pres.alphabet.weights != (1,) * n:
        raise NotQuadratic("dual needs all generators in degree 1")
    field = pres.field
    rels = [rel for rel in pres.relations if not rel.is_zero()]
    for rel in rels:
        if rel.degree() != 2:
            raise NotQuadratic(f"relation {rel} is not quadratic")
    _, kernel = ScalarMatrix.from_sparse(field, _relation_vectors(pres, rels), n * n).kernel_rows()
    dual_names = tuple(name + "'" for name in reversed(pres.alphabet.names))
    dual_alphabet = Alphabet(dual_names)
    # each kernel vector pairs word u v with u' v'
    flipped = [(n - 1 - i, n - 1 - j) for i, j in _pair_index(n)]
    relations = [
        NCPoly.from_payloads(dual_alphabet, field, {flipped[k]: a for k, a in vec.items()}) for vec in kernel
    ]
    return Presentation(dual_alphabet, field, relations)


class KoszulVerdict(NamedTuple):
    verdict: str  # "koszul_to" | "not_koszul"
    bound: int
    betti: object
    witness: Witness | None = None
    convolution_ok: bool | None = None

    @property
    def koszul(self):
        return self.verdict == "koszul_to"

    def __repr__(self):
        if self.koszul:
            return f"KoszulToDegree({self.bound})"
        return f"NotKoszul({self.witness})"


def dual_hilbert_convolution_ok(pres, dual_pres, maxdeg):
    """Coefficientwise check of H(t) * H_dual(-t) = 1 through maxdeg."""
    dims = pres.hilbert(maxdeg)
    dual_dims = dual_pres.hilbert(maxdeg)
    for m in range(maxdeg + 1):
        acc = 0
        for k in range(m + 1):
            acc += dims[k] * ((-1) ** (m - k)) * dual_dims[m - k]
        if acc != (1 if m == 0 else 0):
            return False
    return True


def koszul_check(pres, bound):
    """Koszul-to-bound test: Betti support on the diagonal up to the bound.

    A clean verdict also cross-checks the quadratic-dual Hilbert series
    convolution; an off-diagonal witness reports the first offending
    (position, degree) pair.
    """
    res = minimal_resolution(pres, max_i=bound, maxdeg=bound + 1)
    off = res.betti.off_diagonal()
    if off:
        i, j = off[0]
        return KoszulVerdict(
            "not_koszul",
            bound,
            res.betti,
            Witness(
                "off_diagonal_betti",
                f"generator at position {i} sits in internal degree {j}",
                {"i": i, "j": j, "count": res.betti.b(i, j)},
            ),
        )
    conv = None
    try:
        conv = dual_hilbert_convolution_ok(pres, quadratic_dual(pres), bound)
    except NotQuadratic:
        conv = None
    return KoszulVerdict("koszul_to", bound, res.betti, None, conv)


# ---------------------------------------------------------------------------
# Yoneda algebra of the elliptic normal form
# ---------------------------------------------------------------------------


def _elliptic_dual_relations(alphabet, letters, g, h):
    """The six dual relations, letters naming the duals of w, x, y in alphabet."""
    field = g.field
    one = field.one()
    w, x, y = (alphabet.index(name) for name in letters)
    table = [
        [((x, y), one), ((y, x), one)],
        [((x, w), one)],
        [((w, x), one)],
        [((w, y), one), ((y, w), -one)],
        [((y, w), one), ((x, x), one)],
        [((y, y), one), ((w, w), -h), ((x, x), -g)],
    ]
    return [NCPoly(alphabet, field, dict(spec)) for spec in table]


def expected_dual_relations(dual_alphabet, g, h):
    """The six quadratic dual relations of the elliptic renormalized family.

    Generators are ordered w' < x' < y' (duals of w, x, y); in the usual
    Greek reading x' is chi, y' is nu, and w' is omega.
    """
    return _elliptic_dual_relations(dual_alphabet, ("w'", "x'", "y'"), g, h)


def yoneda_presentation_h0(g):
    """Bigraded presentation of the Yoneda algebra in the degenerate case.

    Generators chi, nu, omega carry bidegree (1,1) and rho carries (3,4);
    the first component is the algebra grading used by the rewriting
    engine, the second is recovered from letter counts.
    """
    field = g.field
    if field.characteristic() == 2:
        raise CharTwo("the degenerate Yoneda presentation assumes characteristic != 2")
    A = Alphabet(["omega", "chi", "nu", "rho"], weights=(1, 1, 1, 3))
    one = field.one()

    def poly(spec):
        return NCPoly(A, field, {A.word(w): field.scalar(c) for w, c in spec})

    # h = 0 drops the omega^2 term: NCPoly discards zero coefficients
    quadratics = _elliptic_dual_relations(A, ("omega", "chi", "nu"), g, field.zero())
    quartics = [
        poly([("chi*rho", one)]),
        poly([("nu*rho", one)]),
        poly([("rho*chi", one)]),
        poly([("rho*nu", one)]),
        poly([("omega*rho", one), ("rho*omega", one)]),
    ]
    sextic = [poly([("rho*rho", one)])]
    return Presentation(A, field, quadratics + quartics + sextic)


def second_degree(word, second_weights):
    return sum(second_weights[i] for i in word)


def bigraded_dimensions(pres, second_weights, bound):
    """Normal-word counts per (grading, second grading) up to the bound."""
    rs = pres.completed(bound)
    out = {}
    for i, words in enumerate(rs.normal_words(bound)):
        for w in words:
            j = second_degree(w, second_weights)
            out[(i, j)] = out.get((i, j), 0) + 1
    return out


class YonedaReport(NamedTuple):
    branch: str  # "semisimple_dual" | "degenerate"
    dual_relations_match: bool
    square_normal_forms_ok: bool
    bigraded_match: bool | None = None
    diagonal_ok: bool | None = None
    details: dict | None = None

    @property
    def ok(self):
        checks = [self.dual_relations_match, self.square_normal_forms_ok]
        if self.bigraded_match is not None:
            checks.append(self.bigraded_match)
        if self.diagonal_ok is not None:
            checks.append(self.diagonal_ok)
        return all(checks)


def _span_equal(field, vec_lists_a, vec_lists_b):
    sa = EchelonSpan(field)
    for v in vec_lists_a:
        sa.insert(v)
    sb = EchelonSpan(field)
    for v in vec_lists_b:
        sb.insert(v)
    return sa.rank == sb.rank and all(sa.contains(v) for v in vec_lists_b)


def _relation_vectors(pres, polys):
    pairs = _pair_index(len(pres.alphabet))
    col = {p: k for k, p in enumerate(pairs)}
    return [{col[w]: c for w, c in p.terms.items()} for p in polys]


def square_normal_form_checks(dual_pres):
    """Word-level certificates for squares of degree-1 dual elements.

    In the dual order w' < x' < y' the reductions x'x' -> -(w'y'),
    x'w' -> 0, w'x' -> 0 and w'w' normal imply that the square of
    a x' + b w' has normal form -a^2 w'y' + b^2 w'w' identically in a, b.
    """
    field = dual_pres.field
    A = dual_pres.alphabet
    rs = dual_pres.completed(2)
    xp = NCPoly.letter(A, field, "x'")
    wp = NCPoly.letter(A, field, "w'")
    wy = NCPoly(A, field, {A.word("w'y'"): field.one()})
    ww = NCPoly(A, field, {A.word("w'w'"): field.one()})
    ok = rs.reduce(xp * xp) == -wy
    ok = ok and rs.reduce(xp * wp).is_zero()
    ok = ok and rs.reduce(wp * xp).is_zero()
    ok = ok and rs.reduce(wp * wp) == ww
    # a bilinear spot check on top of the word-level identities
    for a, b in ((field.scalar(2), field.scalar(3)), (field.scalar(-1), field.scalar(5))):
        gamma = xp.scale(a) + wp.scale(b)
        want = wy.scale(-(a * a)) + ww.scale(b * b)
        ok = ok and rs.reduce(gamma * gamma) == want
    return ok


def yoneda_verify(g, h, bound):
    """Verify the Yoneda-algebra description of the renormalized family.

    Nondegenerate branch (h != 0): the quadratic dual carries exactly the
    six expected relations.  Degenerate branch (h = 0): the four-generator
    bigraded presentation reproduces the Betti table of the minimal
    resolution through (bound, bound + 1), with one-dimensional diagonal
    and superdiagonal components from position 3 on.
    """
    field = g.field
    if field.characteristic() == 2:
        raise CharTwo("the renormalized family assumes characteristic != 2")
    pres = build_Tgh(g, h)
    dual = quadratic_dual(pres)
    expected = expected_dual_relations(dual.alphabet, g, h)
    dual_match = len(dual.relations) == 6 and _span_equal(
        field,
        _relation_vectors(dual, dual.relations),
        _relation_vectors(dual, expected),
    )
    squares_ok = square_normal_form_checks(dual)

    if not h.is_zero():
        return YonedaReport("semisimple_dual", dual_match, squares_ok)

    res = minimal_resolution(pres, max_i=bound, maxdeg=bound + 1)
    e_pres = yoneda_presentation_h0(g)
    second = (1, 1, 1, 4)  # omega, chi, nu carry (1,1); rho carries (3,4)
    dims = bigraded_dimensions(e_pres, second, bound)
    betti = {k: v for k, v in res.betti.items() if k[0] <= bound and k[1] <= bound + 1}
    bigraded_match = dims == betti
    diagonal_ok = all(
        dims.get((i, i), 0) == 1 and dims.get((i, i + 1), 0) == 1
        for i in range(3, bound + 1)
    )
    return YonedaReport(
        "degenerate",
        dual_match,
        squares_ok,
        bigraded_match,
        diagonal_ok,
        {"betti": betti, "yoneda_dims": dims},
    )


def regraded_yoneda_koszul(g, bound):
    """Koszulity of the degenerate Yoneda algebra with every generator in degree 1."""
    field = g.field
    if field.characteristic() == 2:
        raise CharTwo("the degenerate Yoneda presentation assumes characteristic != 2")
    graded = yoneda_presentation_h0(g)
    flat = Alphabet(graded.alphabet.names)  # same letters, all weights 1
    relations = [NCPoly.from_payloads(flat, field, dict(rel.terms)) for rel in graded.relations]
    return koszul_check(Presentation(flat, field, relations), bound)


# ---------------------------------------------------------------------------
# Gorenstein condition and the regularity decision
# ---------------------------------------------------------------------------


class GorensteinProfile(NamedTuple):
    clean: bool
    dual_dims: list  # dim of the quadratic dual in degrees 0..maxdeg + 1
    top_degree: int | None  # its first degree n <= maxdeg with A^!_n != 0 = A^!_{n+1}

    def __repr__(self):
        if self.clean:
            return f"Gorenstein profile clean (socle in degree {self.top_degree})"
        return f"Gorenstein profile fails: quadratic dual dimensions {','.join(map(str, self.dual_dims))}"


def gorenstein_check(pres, maxdeg):
    """Whether the quadratic dual A^! of pres is Frobenius with top degree at most maxdeg.

    A Koszul algebra A is AS-Gorenstein exactly when A^! is Frobenius
    (S. P. Smith, 1996; Lu, Palmieri, Wu and Zhang, JPAA 2008); the top
    degree of A^! is then the global dimension of A.  A^! is generated in
    degree 1, so A^!_{t+1} = 0 makes it finite with top degree t, and a
    completion through maxdeg + 1 sees every t <= maxdeg.  It is Frobenius
    when A^!_t is one-dimensional and each pairing A^!_i x A^!_{t-i} ->
    A^!_t, 0 < i < t, is square and of full rank.
    """
    rs = quadratic_dual(pres).completed(maxdeg + 1)
    dims = rs.hilbert(maxdeg + 1)
    top = next((t for t in range(maxdeg + 1) if dims[t] and not dims[t + 1]), None)
    clean = top is not None and dims[top] == 1 and all(_pairing_full_rank(rs, i, top) for i in range(1, top))
    return GorensteinProfile(clean, dims, top)


def _pairing_full_rank(rs, i, top):
    """Whether the product A_i x A_{top-i} -> A_top of rs, A_top one-dimensional, is square of full rank.

    Row u holds the coefficients of NF(u v) on the one normal word of
    degree top, over the normal words v of degree top - i.
    """
    words = rs.normal_words(top)
    (socle,) = words[top]
    if len(words[i]) != len(words[top - i]):
        return False
    field = rs.field
    monomials = [NCPoly(rs.alphabet, field, {v: field.one()}) for v in words[top - i]]
    span = EchelonSpan(field)
    for u in words[i]:
        products = (rs.multiply(u, v) for v in monomials)
        if not span.insert({k: nf[socle] for k, nf in enumerate(products) if socle in nf}):
            return False
    return True


class ASRegVerdict(NamedTuple):
    """One row of the decision table: regularity, Koszulity and the clause deciding them."""

    decision: bool
    koszul: bool
    clause: str
    witness: Witness | None = None

    def __repr__(self):
        tag = "AS-regular" if self.decision else "not AS-regular"
        return f"{tag} ({self.clause})"


def asreg_decide_2d(iso):
    """Two-generator rule, from the graded isomorphism type of a product C(a,b,c).

    Every quadratic twisted tensor product on two generators is Koszul; it
    is AS-regular iff it is the Jordan plane or a skew plane (a skew kind
    has q != 0: q = 0 is labelled zx_zero).
    """
    if iso.kind in ("jordan", "skew"):
        return ASRegVerdict(True, True, "Jordan plane or skew plane with q != 0")
    return ASRegVerdict(False, True, "q = 0 or square-zero type: not a domain")


def elliptic_decide(g, h):
    """Elliptic rule for T(g, h): Koszul iff AS-regular iff h != 0.

    The renormalized family needs characteristic != 2.
    """
    if g.field.characteristic() == 2:
        raise CharTwo("the elliptic criterion assumes characteristic != 2")
    if h.is_zero():
        return ASRegVerdict(False, False, "elliptic type: h = 0, the algebra is not Koszul hence not regular")
    return ASRegVerdict(True, True, "elliptic type: h != 0")


def _ore_kernel_vector(p):
    """Nonzero (px, py) with sigma(px x + py y) = 0, or None when sigma is invertible.

    A singular sigma kills (D, -d) and (E, -e); a zero sigma kills everything.
    """
    if not (p.d * p.E - p.e * p.D).is_zero():
        return None
    for vec in ((p.D, -p.d), (p.E, -p.e)):
        if not (vec[0].is_zero() and vec[1].is_zero()):
            return vec
    return p.field.one(), p.field.zero()


def asreg_decide(t):
    """Regularity and Koszul decision for a classified twisted tensor product.

    Ore and reducible types are Koszul.  Ore type: regular iff the degree-1
    endomorphism matrix is invertible.  Reducible type: regular iff E != 0
    and a + d != 0.  Elliptic type: elliptic_decide.
    """
    if not t.is_ttp:
        raise ValueError(f"regularity needs a classified product, got {t.kind}")
    if t.kind == "elliptic":
        if t.elliptic_form is None:
            raise CharTwo("the elliptic criterion assumes characteristic != 2")
        return elliptic_decide(t.elliptic_form.g, t.elliptic_form.h)
    p = t.normal_form

    if t.kind == "ore":
        vec = _ore_kernel_vector(p)
        if vec is None:
            return ASRegVerdict(True, True, "ore type: degree-1 endomorphism invertible")
        detail = "degree-1 endomorphism kills a generator combination"
        if all((vec[0] * u + vec[1] * v).is_zero() for u, v in ((p.a, p.A), (p.b, p.B), (p.c, p.C))):
            detail += "; z times that combination is zero (zero divisor)"
        return ASRegVerdict(
            False,
            True,
            "ore type: degree-1 endomorphism singular (not a domain)",
            Witness("zero_divisor", detail, {"kernel": vec}),
        )
    # reducible
    if p.E.is_zero():
        return ASRegVerdict(
            False,
            True,
            "reducible type: E = 0 yields a zero divisor",
            Witness("zero_divisor", "(z - Bx - Cy) y = 0 holds in the algebra", {"B": p.B, "C": p.C}),
        )
    if (p.a + p.d).is_zero():
        return ASRegVerdict(
            False,
            True,
            "reducible type: a + d = 0 makes the quotient by y non-noetherian",
            Witness(
                "factorization",
                "z^2 - zx + d xz + a x^2 = (z - ax)(z - x) in the quotient by y",
                {"a": p.a, "d": p.d},
            ),
        )
    return ASRegVerdict(True, True, "reducible type: E != 0 and a + d != 0")


def zero_divisor_witness_holds(t):
    """Reduce the advertised zero-divisor product in the presented algebra."""
    p = t.normal_form
    pres = build_T(p)
    field, A = pres.field, pres.alphabet
    x = NCPoly.letter(A, field, "x")
    y = NCPoly.letter(A, field, "y")
    z = NCPoly.letter(A, field, "z")
    if t.kind == "reducible" and p.E.is_zero():
        prod = (z - x.scale(p.B) - y.scale(p.C)) * y
        return pres.completed(2).reduce(prod).is_zero()
    if t.kind == "ore":
        vec = _ore_kernel_vector(p)
        if vec is None:
            return False
        r = x.scale(vec[0]) + y.scale(vec[1])
        delta_r = (
            (x * x).scale(vec[0] * p.a) + (y * x).scale(vec[0] * p.b) + (y * y).scale(vec[0] * p.c)
            + (x * x).scale(vec[1] * p.A) + (y * x).scale(vec[1] * p.B) + (y * y).scale(vec[1] * p.C)
        )
        return pres.completed(2).reduce(z * r - delta_r).is_zero()
    return False
