"""Classification decision procedures for the two families.

Two-generator side: the twisted-tensor-product predicate driven by the
f_n scan, and the graded isomorphism type (skew plane / Jordan plane),
each verdict shipping an explicit congruence or substitution witness;
iso_branch_2d picks the type's branch from the payloads alone.

Three-generator side: normalization of the twelve coefficients (kill the
z^2 coefficient of the second image, Jordan form of the degree-1 matrix,
then A and C rescales), followed by the Ore / reducible / elliptic
trichotomy with concrete counterexample witnesses on failure.  The same
trichotomy, solved in ints mod p, gives ttp_locus: it solves a whole block
of the normalized f = 1 space and yields the only tuples of it that a
census needs to classify; the census writes none of its equations.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .families import (
    EllipticForm,
    ParamTuple2D,
    ParamTuple3D,
    apply_basis_change,
    build_C,
    derivation_residuals,
    mat2_inv,
    twisting_axiom_mismatch,
)
from .freealg import Alphabet, NCPoly
from .rewrite import degree3_overlap_elements, second_obstruction_vanishes
from .scalars import CharTwo, NestedExtension, Scalar, ScalarMatrix, Unsupported, adjoin_sqrt, solve_quadratic
from .sequences import fn_nonvanishing


class SingularN(Exception):
    pass


class Witness(NamedTuple):
    kind: str
    detail: str
    data: dict

    def __repr__(self):
        return f"[{self.kind}] {self.detail}"


# ---------------------------------------------------------------------------
# two-generator family
# ---------------------------------------------------------------------------


class TwoDTTPVerdict(NamedTuple):
    kind: str  # "is_ttp" | "not_ttp"
    params: ParamTuple2D
    certified_to: int | None  # None: unconditional; n: no obstruction up to n
    witness: Witness | None = None

    @property
    def is_ttp(self):
        return self.kind == "is_ttp"

    def __repr__(self):
        if self.kind == "is_ttp":
            tag = "unconditional" if self.certified_to is None else f"certified to N={self.certified_to}"
            return f"IsTTP({tag})"
        return f"NotTTP({self.witness})"


def canonical_head(field, a, c):
    """The (a, c) payloads of the canonical class of C(a, b, c): (ac, 1), (1, 0) or (0, 0); ints mod p over GF(p)."""
    if not field._is_zero(c):
        return field._mul(a, c), field._coerce(1)
    return (a if field._is_zero(a) else field._coerce(1)), c


def canonical_2d(p):
    """Canonical representative (ac,b,1), (1,b,0) or (0,b,0) of C(a,b,c); a canonical tuple is returned as it is."""
    field = p.field
    a, c = canonical_head(field, p.a.payload, p.c.payload)
    if a == p.a.payload and c == p.c.payload:
        return p
    return ParamTuple2D(Scalar(field, a), p.b, Scalar(field, c))


# the alphabet of build_C: x = 0 < z = 1
_XZ = Alphabet(["x", "z"])


def _dependence_witness(a, b, n, e):
    """The spanning-set dependence relation at the first vanishing index n, where e_n = e.

    There f_n = 0, so g_n = (1 - b) e_n; the relation is
    e_n z x^n z - g_n x^(n+1) z + a e_n x^(n+2), built on payloads.
    """
    field = a.field
    add, mul, neg, is0 = field._add, field._mul, field._neg, field._is_zero
    e = e.payload
    g = mul(add(field._coerce(1), neg(b.payload)), e)
    terms = {(1,) + (0,) * n + (1,): e, (0,) * (n + 1) + (1,): neg(g), (0,) * (n + 2): mul(a.payload, e)}
    return NCPoly.from_payloads(_XZ, field, {w: c for w, c in terms.items() if not is0(c)})


def classify_2d_ttp(p, bound=50):
    """Decide whether C(a,b,c) is a twisted tensor product of k[x] and k[z].

    One-sided cases (a = 0 or c = 0) are unconditional.  Otherwise the
    f_n(ac, b) scan runs to the bound; over a finite field the state
    orbit is periodic through (1, 1) (see sequences), so a clean scan that
    returns to (1, 1) within the bound is an unconditional certificate.
    """
    field = p.field
    if p.a.is_zero() or p.c.is_zero():
        return TwoDTTPVerdict("is_ttp", p, None)
    t = p.a * p.c
    report = fn_nonvanishing(t, p.b, bound)
    if report.all_nonzero:
        return TwoDTTPVerdict("is_ttp", p, None if report.cycle_closed else bound)
    n = report.zero_index
    if n == 1 and p.b.payload == field._coerce(-1):
        dims = build_C(canonical_2d(p)).hilbert(4)
        return TwoDTTPVerdict(
            "not_ttp",
            p,
            None,
            Witness(
                "hilbert_mismatch",
                "dimension growth is Fibonacci, not polynomial",
                {"n": n, "dims": tuple(dims)},
            ),
        )
    rel = _dependence_witness(t, p.b, n, report.zero_e)
    return TwoDTTPVerdict(
        "not_ttp",
        p,
        None,
        Witness(
            "dependence_relation",
            f"f_{n}(ac, b) = 0 forces a relation among the spanning monomials "
            "of the rescaled presentation",
            {"n": n, "relation": rel},
        ),
    )


class CongruenceData(NamedTuple):
    m: ScalarMatrix
    n: ScalarMatrix
    target: ScalarMatrix


def congruence_verify(cd):
    """Exact check of N^t M N = target; the witness matrix must be invertible."""
    if cd.n.nrows != cd.n.ncols:
        raise SingularN("witness matrix is not square")
    if cd.n.det().is_zero():
        raise SingularN("witness matrix is singular")
    return cd.n.transpose() * cd.m * cd.n == cd.target


def _matrix2(field, rows):
    """The 2x2 matrix of the two dense payload rows, zeros dropped."""
    is0 = field._is_zero
    return ScalarMatrix.from_sparse(field, [{j: x for j, x in enumerate(row) if not is0(x)} for row in rows], 2)


def _phi_matrix(field, a, b, c):
    """phi-matrix [[-a, -b], [1, -c]] of zx - a x^2 - b xz - c z^2, for payloads a, b, c."""
    neg = field._neg
    return _matrix2(field, ((neg(a), neg(b)), (field._coerce(1), neg(c))))


def skew_matrix(q):
    """phi-matrix of zx - q xz."""
    field = q.field
    zero = field._coerce(0)
    return _phi_matrix(field, zero, q.payload, zero)


def jordan_matrix(field):
    """phi-matrix of zx - xz - z^2."""
    one = field._coerce(1)
    return _phi_matrix(field, field._coerce(0), one, one)


class IsoType2D(NamedTuple):
    kind: str  # "skew" | "jordan" | "zx_zero" | "xsq_zero"
    q: Scalar | None
    canonical: ParamTuple2D
    witness: object  # CongruenceData or a substitution dict
    roots: tuple = ()

    def __repr__(self):
        if self.kind in ("skew", "zx_zero"):
            return f"SkewPlane(q={self.q})"
        return {"jordan": "JordanPlane", "xsq_zero": "SquareZero"}[self.kind]


def _canonical_root(roots):
    """Deterministic representative of {q, 1/q}: smallest canonical encoding."""
    return min(roots, key=lambda r: r.sort_key())


def iso_branch_2d(field, a, b, c):
    """(branch, kind): the branch of graded_iso_type_2d for the canonical payloads (a, b, c), and its type.

    A head with c = 0 takes the identity (a = 0), the Jordan (b = 1) or the
    shear branch, whose kind is zx_zero exactly when b = 0.  A head with
    c = 1 is the Jordan plane when the discriminant 4a - (b - 1)^2 vanishes,
    else a skew plane with q = -1 when b = -1, else q solves
    (a + b) q^2 + (2a - b^2 - 1) q + (a + b) = 0, and q = 0 (zx_zero)
    exactly when the outer coefficient a + b vanishes.  The kind depends
    on nothing else, so a census keys its TTP classes by it.
    """
    add, mul, neg, is0 = field._add, field._mul, field._neg, field._is_zero
    one = field._coerce(1)
    if is0(c):
        if is0(a):
            branch = "identity"
        elif b == one:
            return "one_sided_jordan", "jordan"
        else:
            branch = "shear"
        return branch, "zx_zero" if is0(b) else "skew"
    b1 = add(b, neg(one))
    if is0(add(mul(field._coerce(4), a), neg(mul(b1, b1)))):
        return "jordan", "jordan"
    if b == field._coerce(-1):
        return "q_minus_one", "skew"
    return "quadratic", "zx_zero" if is0(add(a, b)) else "skew"


def graded_iso_type_2d(v):
    """Graded isomorphism type of C(a,b,c), from its classify_2d_ttp verdict v.

    The verdict must say that C(a,b,c) is a twisted tensor product; each
    type carries either an explicit congruence matrix or a generator
    substitution witnessing it.  The square-zero type (relation a perfect
    square) never occurs here: its coefficient matrix would be symmetric
    of rank one, which forces the excluded degenerate parameters.  The
    branch and the kind come from iso_branch_2d; the witness entries are
    computed on payloads (see scalars); only q, the roots and the witness
    matrices are boxed.
    """
    if not v.is_ttp:
        raise ValueError(f"not a twisted tensor product: {v}")
    p = v.params
    field = p.field
    cp = canonical_2d(p)
    add, mul, neg, inv = field._add, field._mul, field._neg, field._inv
    a, b = cp.a.payload, cp.b.payload
    one = field._coerce(1)
    branch, kind = iso_branch_2d(field, a, b, cp.c.payload)

    if branch == "identity":
        return IsoType2D(kind, cp.b, cp, {"x": "x", "z": "z"}, (cp.b,))
    if branch == "one_sided_jordan":
        # x -> -z, z -> x carries the relation onto the Jordan one
        return IsoType2D(kind, None, cp, {"x": "-z", "z": "x"})
    if branch == "shear":
        witness = {"x": f"({field._str(add(one, neg(b)))})x", "z": "x + z"}
        return IsoType2D(kind, cp.b, cp, witness, (cp.b,))

    if branch == "jordan":
        # the Jordan discriminant 4a - (b - 1)^2 vanishes
        if field.characteristic() == 2:
            s = field.sqrt(cp.a).payload
        else:
            s = mul(add(b, neg(one)), inv(field._coerce(2)))  # the square root of a with 2s = b - 1
        n = _matrix2(field, ((add(one, s), field._coerce(0)), (s, one)))
        cd = CongruenceData(jordan_matrix(field), n, _phi_matrix(field, a, b, one))
        assert congruence_verify(cd)
        return IsoType2D(kind, None, cp, cd)

    if branch == "q_minus_one":
        if field.characteristic() == 2:
            raise CharTwo("the q = -1 branch requires characteristic != 2")
        ext, w = adjoin_sqrt(Scalar(field, add(one, neg(a))))
        if ext != field:
            a, b = ext._embed(a), ext._embed(b)
        add, mul, neg = ext._add, ext._mul, ext._neg
        e1, w = ext._coerce(1), w.payload
        half = ext._inv(ext._coerce(2))
        # N = [[(1 + w)/2, -1/2], [w - 1, 1]] with w^2 = 1 - a
        n = _matrix2(ext, ((mul(add(e1, w), half), mul(neg(e1), half)), (add(w, neg(e1)), e1)))
        q = Scalar(ext, neg(e1))
        cd = CongruenceData(skew_matrix(q), n, _phi_matrix(ext, a, b, e1))
        assert congruence_verify(cd)
        return IsoType2D(kind, q, cp, cd, (q,))

    # q is a root of (a + b) q^2 + (2a - b^2 - 1) q + (a + b)
    ab = Scalar(field, add(a, b))
    res = solve_quadratic(ab, Scalar(field, add(add(a, a), neg(add(mul(b, b), one)))), ab)
    roots = tuple(res.roots)
    q = _canonical_root(roots)
    F2 = res.field
    if res.extended:
        a, b = F2._embed(a), F2._embed(b)
    add, mul, neg, inv = F2._add, F2._mul, F2._neg, F2._inv
    e1, qq = F2._coerce(1), q.payload
    # N = [[(bq - 1)/(q^2 - 1), 1/(q - 1)], [(b - q)/(q + 1), 1]]
    n = _matrix2(
        F2,
        (
            (mul(add(mul(b, qq), neg(e1)), inv(add(mul(qq, qq), neg(e1)))), inv(add(qq, neg(e1)))),
            (mul(add(b, neg(qq)), inv(add(qq, e1))), e1),
        ),
    )
    cd = CongruenceData(skew_matrix(q), n, _phi_matrix(F2, a, b, e1))
    assert congruence_verify(cd)
    assert q.is_zero() == (kind == "zx_zero"), "q = 0 exactly when its outer coefficient a + b vanishes"
    return IsoType2D(kind, q, cp, cd, roots)


# ---------------------------------------------------------------------------
# three-generator family: normalization
# ---------------------------------------------------------------------------


class Step(NamedTuple):
    kind: str  # "swap_xy" | "rescale_z" | "shear_y_add_x" | "gl2" | "rescale_y" | "extend_field"
    pm: ScalarMatrix | None = None
    lam: Scalar | None = None
    note: str = ""
    new_field: object = None  # set on extend_field steps


class JNF3DResult(NamedTuple):
    params: ParamTuple3D
    trace: tuple
    normalized: bool
    obstruction: str | None = None


def jordan_normal_form_3d(p):
    """Normalize the twelve coefficients by the isomorphism group action.

    Output satisfies D = F = 0 and e, f in {0, 1}, with A normalized to
    {0, 1} when e = 0 and C to {0, 1} when e = A = 0, and d = E when
    e = 1.  Each step records the substitution applied, so the isomorphism
    can be replayed or inverted; a substitution that changes nothing is
    not recorded, so a normalized tuple has an empty trace.  When the z^2
    coefficient is nonzero the degree-1 matrix can only be normalized if
    the orthogonal direction of the z^2 vector is one of its left
    eigendirections; otherwise the tuple is returned partially normalized
    with the obstruction named (such a tuple is never a twisted tensor
    product).
    """
    field = p.field
    steps = []
    cur = p

    def push(kind, pm=None, lam=1, note=""):
        # x, y -> rows of pm and z -> lam z, recorded unless it is the identity
        nonlocal cur
        fld = cur.field
        identity = ScalarMatrix.identity(fld, 2)
        pm = identity if pm is None else pm
        if lam == 1 and pm == identity:
            return
        lam = fld.scalar(lam)
        cur = apply_basis_change(cur, pm, lam)
        steps.append(Step(kind, pm, lam, note))

    # stage 1: kill F and normalize f to {0, 1}
    if not cur.F.is_zero():
        push("swap_xy", ScalarMatrix(field, [[0, 1], [1, 0]]), 1, "exchange f and F")
    if not cur.f.is_zero() and cur.f != 1:
        push("rescale_z", None, cur.f.inv(), "make f = 1")
    if not cur.F.is_zero():
        # now f = 1: the shear y -> y + F x removes the remaining z^2 term
        push("shear_y_add_x", ScalarMatrix(field, [[1, 0], [cur.F, 1]]), 1, "kill F")
    assert cur.F.is_zero() and (cur.f.is_zero() or cur.f == 1)

    # stage 2: Jordan form of the degree-1 matrix
    d, e, D, E = cur.d, cur.e, cur.D, cur.E
    if not cur.f.is_zero():
        if not D.is_zero():
            return JNF3DResult(
                cur,
                tuple(steps),
                False,
                "z^2 direction is not aligned with a left eigendirection "
                "of the degree-1 matrix (D cannot be removed while f = 1)",
            )
        if not e.is_zero() and d != E:
            push("gl2", ScalarMatrix(field, [[1, -e / (d - E)], [0, 1]]), 1, "diagonalize keeping f = 1")
        elif not e.is_zero() and e != 1:
            push("rescale_y", ScalarMatrix(field, [[1, 0], [0, e.inv()]]), 1, "make e = 1")
    elif not (e.is_zero() and D.is_zero() and d == E):  # a scalar matrix is already diagonal
        try:
            res = solve_quadratic(field.one(), -(d + E), d * E - e * D)
        except NestedExtension:
            return JNF3DResult(cur, tuple(steps), False, "nested field extension needed")
        except Unsupported:
            return JNF3DResult(
                cur,
                tuple(steps),
                False,
                "the eigenvalues of the degree-1 matrix lie in GF(p^2), which adjoining "
                "a square root does not reach in characteristic 2",
            )
        F2 = res.field
        if res.extended:
            cur = cur.coerced(F2)
            steps.append(Step("extend_field", None, None, f"adjoin eigenvalue field {F2}", F2))
            d, e, D, E = cur.d, cur.e, cur.D, cur.E
        if len(res.roots) == 2:
            rows = [_left_eigvec(F2, d, e, D, E, lam) for lam in sorted(res.roots, key=lambda r: r.sort_key())]
        else:
            u = _left_eigvec(F2, d, e, D, E, res.roots[0])
            rows = [_left_generalized(F2, d, e, D, E, res.roots[0], u), u]
        push("gl2", mat2_inv(ScalarMatrix(F2, rows)), 1, "Jordan form of the degree-1 matrix")
    assert cur.D.is_zero() and (cur.e.is_zero() or cur.e == 1)

    # stage 3: rescale y to pin A, then C
    if cur.e.is_zero():
        if not cur.A.is_zero() and cur.A != 1:
            push("rescale_y", ScalarMatrix(cur.field, [[1, 0], [0, cur.A]]), 1, "make A = 1")
        if cur.A.is_zero() and not cur.C.is_zero() and cur.C != 1:
            push("rescale_y", ScalarMatrix(cur.field, [[1, 0], [0, cur.C.inv()]]), 1, "make C = 1")
    return JNF3DResult(cur, tuple(steps), True)


def _left_eigvec(field, d, e, D, E, lam):
    """Nonzero row u with u (M - lam I) = 0 for M = [[d, e], [D, E]]."""
    # u (M - lam) = (u0 (d-lam) + u1 D, u0 e + u1 (E-lam))
    if not D.is_zero():
        return [field.one(), -(d - lam) / D]
    if not (E - lam).is_zero():
        return [field.one(), -e / (E - lam)]
    # D = 0 and E = lam: the second row already is an eigenvector
    return [field.zero(), field.one()]


def _left_generalized(field, d, e, D, E, lam, u):
    """Row r with r (M - lam I) = u (single 2x2 Jordan block case)."""
    m = ScalarMatrix(field, [[d - lam, D], [e, E - lam]])  # transpose of M - lam I
    sol = m.solve(u)
    assert sol is not None, "generalized eigenvector must exist for a Jordan block"
    return sol


# ---------------------------------------------------------------------------
# three-generator family: trichotomy
# ---------------------------------------------------------------------------

# A tuple that does not normalize is checked for product dimensions up to
# this degree; passing the check leaves it unknown, certified to this degree.
HILBERT_DEGREE = 4


class TTPType3D(NamedTuple):
    kind: str  # "ore" | "reducible" | "elliptic" | "not_ttp" | "unknown"
    case: str | None
    normal_form: ParamTuple3D | None
    trace: tuple
    certified_to: int | None  # None means unconditional
    witness: Witness | None = None
    elliptic_form: EllipticForm | None = None

    @property
    def is_ttp(self):
        return self.kind in ("ore", "reducible", "elliptic")

    def __repr__(self):
        if self.kind == "ore":
            return f"OreType(case {self.case})"
        if self.kind == "reducible":
            tag = "" if self.certified_to is None else f", certified to N={self.certified_to}"
            return f"ReducibleType(case {self.case}{tag})"
        if self.kind == "elliptic":
            return f"EllipticType({self.normal_form})"
        if self.kind == "unknown":
            return f"Unknown(N={self.certified_to})"
        return f"NotTTP({self.witness})"


def ore_case_id(p):
    """Mutually exclusive Ore case label from the normalized coefficients."""
    one = p.field.one()
    if p.e.is_zero():
        if p.d == one and p.E == one:
            return "1.i"
        if p.E == one:
            return "1.ii"
        if p.d == one:
            return "1.iii"
        return "1.iv"
    if p.d == one:
        return "2.i"
    return "2.ii"


def reducible_case_id(p):
    """Case label (i)-(vii) for a normalized tuple with vanishing second obstruction."""
    fld = p.field
    one = fld.one()
    if p.e.is_zero():
        if p.C.is_zero():
            if p.E.is_zero():
                return "i"
            if p.E == one:
                return "ii"
            if p.E == -one and p.d == -one and p.B == fld.scalar(2):
                return "iii"
            raise AssertionError(f"no reducible case matches {p}")
        if p.E.is_zero():
            return "iv"
        if p.E == -one and p.d == -one and p.B == fld.scalar(2):
            return "v"
        raise AssertionError(f"no reducible case matches {p}")
    if p.d.is_zero():
        return "vi"
    if p.d == one:
        return "vii"
    raise AssertionError(f"no reducible case matches {p}")


def reducible_system_residuals(p):
    """The six vanishing conditions equivalent to the second obstruction being 0."""
    a, b, c, d, e = p.a, p.b, p.c, p.d, p.e
    B, C, E = p.B, p.C, p.E
    one = p.field.one()
    two = p.field.scalar(2)
    return [
        ("1", E * (one - B - E)),
        ("2", E * (-d - B + d * E)),
        ("3", B * (one - d - B) - a * (one - E * E)),
        ("4", E * (C + C * E + e - e * E)),
        ("5", C * (one - d - two * B - B * E) - b * (one - E * E) - e * B),
        ("6", (one + E) * (-c * (one - E) - C * C) - e * C),
    ]


def ttp_locus(p, e, axes, abc):
    """(outer, candidates) for each outer tuple of a T block that can carry a twisted tensor product, in ints mod p.

    The block holds the normalized f = 1 tuples with (a, b, c) in the
    product of the lists abc and an outer tuple (e, d, A, B, C, E) with
    (d, A, B, C, E) in the product of the lists axes; the E axis is None
    where E = d (the block at e = 1).  Every value is a residue in
    range(p).  The outer tuples come in the product order of axes, each
    with its candidates (a, b, c) in the product order of abc, and an outer
    tuple with no candidate is left out.

    The first coefficient of G2 is -A.  So A != 0 leaves only the elliptic
    plane e = 0, d = -1, A = 1, E = -1, b = (1-a)(2-B), with B, C, a and c
    free.  A = 0 leaves G2 = 0, that is the six equations of
    reducible_system_residuals.  Equations 1, 2 and 4 read no a, b or c:
    they hold at E = 0, and at E != 0 they are B = 1 - E,
    (E - 1)(d + 1) = 0 and C(1 + E) = e(E - 1).  Equations 3, 5 and 6 are
    linear in a, b and c with the one coefficient 1 - E^2; where it
    vanishes the coordinate runs over all of its values.  The locus only
    chooses candidates: classify_3d decides each one, and every tuple
    outside it has G2 != 0 and fails an elliptic constraint.
    """
    ds, As, Bs, Cs, Es = axes
    as_, bs, cs = abc
    # positions of B, C and E in their axes; E runs over d's values where E = d
    at = [{v: i for i, v in enumerate(axis)} for axis in (Bs, Cs, ds if Es is None else Es)]

    def solve(k, rhs, values):
        # the values v with k v = rhs
        if k % p:
            v = rhs * pow(k, -1, p) % p
            return [v] if v in values else []
        return [] if rhs % p else values

    for d, A in product(ds, As):
        if A:
            if e or A != 1 or d != p - 1:
                continue
            BCEs = product(Bs, Cs, solve(1, -1, Es))
        else:
            BCEs = []
            for E in ([d] if Es is None else Es):
                if not E:
                    BCEs += product(Bs, Cs, [E])
                elif (E - 1) * (d + 1) % p == 0:
                    BCEs += product(solve(1, 1 - E, Bs), solve(1 + E, e * (E - 1), Cs), [E])
            BCEs.sort(key=lambda BCE: [pos[v] for pos, v in zip(at, BCE)])
        for B, C, E in BCEs:
            if A:
                candidates = [(a, b, c) for a in as_ for b in solve(1, (1 - a) * (2 - B), bs) for c in cs]
            else:
                k = 1 - E * E
                candidates = list(product(
                    solve(k, B * (1 - d - B), as_),
                    solve(k, C * (1 - d - 2 * B - B * E) - e * B, bs),
                    solve(k, -(1 + E) * C * C - e * C, cs),
                ))
            if candidates:
                yield (e, d, A, B, C, E), candidates


# What a nonzero second obstruction forces, in the order they are tested; a
# tuple that fails one is not a twisted tensor product, and the later ones
# are not evaluated.
_ELLIPTIC_CONSTRAINTS = (
    ("e = 0", lambda q: q.e.is_zero()),
    ("d = -1", lambda q: q.d == -1),
    ("A = 1", lambda q: q.A == 1),
    ("E = -1", lambda q: q.E == -1),
    ("b = (1-a)(2-B)", lambda q: q.b == (1 - q.a) * (2 - q.B)),
)


def classify_3d(p, bound=50):
    """Full trichotomy decision for the three-generator family.

    Normalizes first, then branches on the z^2 coefficient: the one-sided
    case reduces to the derivation check (an exact decision), the others
    to the degree-3 obstructions, the f_n scan and the elliptic coefficient
    constraints.  A vanishing second obstruction G2 gives the reducible
    case; otherwise the elliptic constraints decide, and the first
    obstruction G1 is evaluated only once they hold, to check that it is
    (1 - a) G2.
    """
    jnf = jordan_normal_form_3d(p)
    if not jnf.normalized:
        mismatch = twisting_axiom_mismatch(p, HILBERT_DEGREE)
        if mismatch is not None:
            m, want, got = mismatch
            return TTPType3D(
                "not_ttp",
                None,
                jnf.params,
                jnf.trace,
                None,
                Witness(
                    "hilbert_mismatch",
                    f"dim in degree {m} is {got}, a twisted tensor product needs {want}",
                    {"degree": m, "expected": want, "got": got, "obstruction": jnf.obstruction},
                ),
            )
        return TTPType3D(
            "unknown",
            None,
            jnf.params,
            jnf.trace,
            HILBERT_DEGREE,
            Witness("alignment_obstruction", jnf.obstruction or "", {}),
        )

    q = jnf.params
    if q.f.is_zero():
        residuals = derivation_residuals(q)
        bad = next(((name, v) for name, v in residuals if not v.is_zero()), None)
        if bad is not None:
            return TTPType3D(
                "not_ttp",
                None,
                q,
                jnf.trace,
                None,
                Witness(
                    "constraint_violated",
                    f"derivation condition fails at the {bad[0]} coefficient",
                    {"monomial": bad[0], "value": bad[1]},
                ),
            )
        return TTPType3D("ore", ore_case_id(q), q, jnf.trace, None)

    # G2 = 0 is the reducible case, decided with an early exit; G1 is read
    # only where the elliptic constraints hold, to check it against G2
    if second_obstruction_vanishes(q):
        report = fn_nonvanishing(q.a, q.d, bound)
        if not report.all_nonzero:
            n = report.zero_index
            return TTPType3D(
                "not_ttp",
                None,
                q,
                jnf.trace,
                None,
                Witness(
                    "fn_zero",
                    f"f_{n}(a, d) = 0: the quotient by the normal generator y "
                    "is not a twisted tensor product",
                    {"n": n, "a": q.a, "d": q.d},
                ),
            )
        for name, v in reducible_system_residuals(q):
            assert v.is_zero(), f"vanishing obstruction but equation {name} fails"
        certified = None if report.cycle_closed else bound
        return TTPType3D("reducible", reducible_case_id(q), q, jnf.trace, certified)

    bad = next((name for name, holds in _ELLIPTIC_CONSTRAINTS if not holds(q)), None)
    if bad is not None:
        return TTPType3D(
            "not_ttp",
            None,
            q,
            jnf.trace,
            None,
            Witness(
                "constraint_violated",
                f"nonzero second obstruction forces {bad}",
                {"constraint": bad},
            ),
        )
    g1, g2 = degree3_overlap_elements(q)
    assert not g2.is_zero() and g1 == g2.scale(1 - q.a)
    ef = None
    if q.field.characteristic() != 2:
        ef = EllipticForm.from_params(q.a, q.B, q.c, q.C)
    return TTPType3D("elliptic", None, q, jnf.trace, None, elliptic_form=ef)
