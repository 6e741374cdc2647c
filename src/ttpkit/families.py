"""Builders and validators for the algebra families under study.

Three presentations recur throughout: the two-generator family
C(a,b,c) = k<x,z>/(zx - a x^2 - b xz - c z^2), the twelve-coefficient
three-generator family T on x,y,z, and its elliptic renormalization
T(g,h) on x,y,w.  This module also houses the coefficient-level action
of the basic isomorphisms (GL2 on x,y and rescaling of z), the Ore-data
derivation residuals, and the degreewise twisted-tensor-product dimension
test.  The basis-change action and the residuals compute on the twelve
coefficient payloads (ParamPayloads3D; see scalars), with the field's
hooks bound once per call; apply_basis_change and derivation_residuals
box their results, and build_T writes its relations' payloads straight
onto module-level words.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

from .freealg import Alphabet, NCPoly
from .rewrite import _complete
from .scalars import CharTwo, DivisionByZero, FieldMismatch, Scalar, ScalarMatrix

PARAM_NAMES_3D = ("a", "b", "c", "d", "e", "f", "A", "B", "C", "D", "E", "F")
_PARAM_SET_3D = frozenset(PARAM_NAMES_3D)

# The twelve coefficient payloads of a ParamTuple3D, under the same names.
ParamPayloads3D = namedtuple("ParamPayloads3D", PARAM_NAMES_3D)


class ParamTuple2D(NamedTuple):
    a: Scalar
    b: Scalar
    c: Scalar

    @staticmethod
    def make(field, a, b, c):
        return ParamTuple2D(field.scalar(a), field.scalar(b), field.scalar(c))

    @property
    def field(self):
        return self.a.field

    def as_dict(self):
        return {"a": self.a, "b": self.b, "c": self.c}

    def __repr__(self):
        return f"C({self.a},{self.b},{self.c})"


class ParamTuple3D(NamedTuple):
    a: Scalar
    b: Scalar
    c: Scalar
    d: Scalar
    e: Scalar
    f: Scalar
    A: Scalar
    B: Scalar
    C: Scalar
    D: Scalar
    E: Scalar
    F: Scalar

    @staticmethod
    def make(field, **kw):
        """The tuple of the given coefficients, missing ones 0."""
        if not _PARAM_SET_3D.issuperset(kw):
            raise ValueError(f"unknown parameters {sorted(kw.keys() - _PARAM_SET_3D)}")
        return ParamTuple3D(*(field.scalar(kw.get(k, 0)) for k in PARAM_NAMES_3D))

    @staticmethod
    def from_payloads(field, v):
        """The tuple of the twelve payloads v of field, in PARAM_NAMES_3D order."""
        return ParamTuple3D(*(Scalar(field, x) for x in v))

    @property
    def field(self):
        return self.a.field

    def payloads(self):
        """The ParamPayloads3D of the twelve coefficients."""
        return ParamPayloads3D(*(x.payload for x in self))

    def as_dict(self):
        return {k: getattr(self, k) for k in PARAM_NAMES_3D}

    def coerced(self, field):
        """The same tuple with every entry embedded into an extension field."""
        return ParamTuple3D(**{k: field.embed(v) for k, v in self.as_dict().items()})

    def __repr__(self):
        vals = ",".join(str(getattr(self, k)) for k in PARAM_NAMES_3D[:6])
        Vals = ",".join(str(getattr(self, k)) for k in PARAM_NAMES_3D[6:])
        return f"T({vals};{Vals})"


class Presentation:
    """Alphabet + homogeneous relations, with cached completion."""

    def __init__(self, alphabet, field, relations):
        self.alphabet = alphabet
        self.field = field
        self.relations = tuple(relations)
        for r in self.relations:
            if not r.is_homogeneous():
                raise ValueError(f"inhomogeneous relation {r}")
        self._rs = None

    def completed(self, d):
        """Rewrite system completed to degree d from the relations, cached until a larger d is asked."""
        if self._rs is None or self._rs.completed_to < d:
            self._rs, _ = _complete(self.alphabet, self.field, self.relations, d)
        return self._rs

    def hilbert(self, d):
        return self.completed(d).hilbert(d)

    def __repr__(self):
        rels = "; ".join(str(r) for r in self.relations)
        return f"<{self.alphabet} | {rels}>"


def build_C(p):
    """k<x,z>/(zx - a x^2 - b xz - c z^2) with x < z."""
    field = p.field
    alphabet = Alphabet(["x", "z"])
    rel = NCPoly(alphabet, field, {
        alphabet.word("zx"): field.one(),
        alphabet.word("x^2"): -p.a,
        alphabet.word("xz"): -p.b,
        alphabet.word("z^2"): -p.c,
    })
    return Presentation(alphabet, field, [rel])


# build_T's alphabet y < x < z, and the words of its relations: the leads
# zx, zy, xy and yx, and the tail words that zx and zy take six
# coefficients each on, in PARAM_NAMES_3D order
_T_ALPHABET = Alphabet(["y", "x", "z"])
_T_ZX, _T_ZY, _T_XY, _T_YX = map(_T_ALPHABET.word, ("zx", "zy", "xy", "yx"))
_T_TAIL = tuple(map(_T_ALPHABET.word, ("x^2", "xy", "y^2", "xz", "yz", "z^2")))


def build_T(p):
    """k<x,y,z> modulo zx - tau(zx), zy - tau(zy), xy - yx, with y < x < z."""
    field = p.field
    neg, is0 = field._neg, field._is_zero
    one = field._coerce(1)
    v = p.payloads()

    def tau_relation(lead, coeffs):
        terms = {lead: one}
        for word, c in zip(_T_TAIL, coeffs):
            if not is0(c):
                terms[word] = neg(c)
        return NCPoly.from_payloads(_T_ALPHABET, field, terms)

    rel_zx = tau_relation(_T_ZX, v[:6])
    rel_zy = tau_relation(_T_ZY, v[6:])
    comm = NCPoly.from_payloads(_T_ALPHABET, field, {_T_XY: one, _T_YX: neg(one)})
    return Presentation(_T_ALPHABET, field, [rel_zx, rel_zy, comm])


def build_Tgh(g, h):
    """k<x,y,w>/(wy + yw - x^2 - g y^2, w^2 + h y^2, xy - yx), y < x < w."""
    field = g.field
    if field.characteristic() == 2:
        raise CharTwo("this presentation needs characteristic != 2")
    alphabet = Alphabet(["y", "x", "w"])
    one = field.one()
    r1 = NCPoly(alphabet, field, {
        alphabet.word("wy"): one,
        alphabet.word("yw"): one,
        alphabet.word("x^2"): -one,
        alphabet.word("y^2"): -g,
    })
    r2 = NCPoly(alphabet, field, {alphabet.word("w^2"): one, alphabet.word("y^2"): h})
    r3 = NCPoly(alphabet, field, {alphabet.word("xy"): one, alphabet.word("yx"): -one})
    return Presentation(alphabet, field, [r1, r2, r3])


class EllipticForm(NamedTuple):
    """Renormalized constants of the elliptic family (characteristic != 2)."""

    beta: Scalar
    gamma: Scalar
    g: Scalar
    h: Scalar

    @staticmethod
    def from_params(a, B, c, C):
        field = a.field
        if field.characteristic() == 2:
            raise CharTwo("the elliptic renormalization divides by 2")
        two = field.scalar(2)
        four = field.scalar(4)
        beta = two - B
        gamma = C + two * (a - 1)
        g = gamma - beta * beta / four
        h = c - (a - 1) * (C + a - 1)
        return EllipticForm(beta, gamma, g, h)


def derivation_residuals(p):
    """Cubic-coefficient differences of sigma(x)d(y)+d(x)y = sigma(y)d(x)+d(y)x.

    sigma(x) = dx + ey and sigma(y) = Dx + Ey is the degree-1 matrix of p,
    and d(x), d(y) are its quadratics (a, b, c) and (A, B, C).  Returns
    [(monomial, lhs - rhs coefficient)] for x^3, x^2y, xy^2, y^3; the data
    defines a derivation exactly when all four vanish.
    """
    field = p.field
    return [(name, Scalar(field, x)) for name, x in _derivation_residuals(field, p.payloads())]


def _derivation_residuals(field, v):
    """derivation_residuals at the payloads v, a ParamPayloads3D: [(monomial, payload)]."""
    add, mul, neg = field._add, field._mul, field._neg
    a, b, c, d, e, _, A, B, C, D, E, _ = v
    one = field._coerce(1)
    d1, E1 = add(d, neg(one)), add(one, neg(E))  # d - 1 and 1 - E
    return [
        ("x^3", add(mul(A, d1), neg(mul(a, D)))),
        ("x^2y", add(add(add(mul(B, d1), mul(a, E1)), mul(e, A)), neg(mul(b, D)))),
        ("xy^2", add(add(add(mul(C, d1), mul(b, E1)), mul(e, B)), neg(mul(c, D)))),
        ("y^3", add(mul(c, E1), mul(e, C))),
    ]


def twisting_axiom_mismatch(p, n):
    """Degreewise twisted-tensor-product test: dim T_m = (m+1)(m+2)/2 for m <= n.

    Returns the first failing (m, want, got), or None when every degree fits.
    """
    dims = build_T(p).hilbert(n)
    for m in range(n + 1):
        want = (m + 1) * (m + 2) // 2
        if dims[m] != want:
            return m, want, dims[m]
    return None


def mat2_inv(m):
    try:
        return m.inverse()
    except DivisionByZero:
        raise ValueError("change of basis must be invertible") from None


def _quad_transform(field, q, pm):
    """Push a quadratic (qa, qb, qc) = qa x^2 + qb xy + qc y^2 through x,y -> rows of pm.

    Every value is a payload, and pm is ((p00, p01), (p10, p11)).
    """
    add, mul = field._add, field._mul
    two = field._coerce(2)
    qa, qb, qc = q
    (p00, p01), (p10, p11) = pm
    na = add(add(mul(qa, mul(p00, p00)), mul(qb, mul(p00, p10))), mul(qc, mul(p10, p10)))
    nb = add(
        add(mul(two, mul(qa, mul(p00, p01))), mul(qb, add(mul(p00, p11), mul(p01, p10)))),
        mul(two, mul(qc, mul(p10, p11))),
    )
    nc = add(add(mul(qa, mul(p01, p01)), mul(qb, mul(p01, p11))), mul(qc, mul(p11, p11)))
    return na, nb, nc


def _entries2(m):
    """((m00, m01), (m10, m11)): the payloads of the 2x2 ScalarMatrix m."""
    zero = m.field._coerce(0)
    return tuple((row.get(0, zero), row.get(1, zero)) for row in m.rows)


def apply_basis_change(p, pm, lam):
    """Coefficient action of (x,y) -> pm rows together with z -> lam * z.

    pm is the matrix of the GL2 substitution (row i = image of the i-th
    generator of x,y) and lam rescales z.  Returns the parameter tuple of
    the isomorphic presentation; the substitution x -> pm(x), y -> pm(y),
    z -> lam z carries the old relation ideal onto the new one.
    """
    field = p.field
    lam = field.scalar(lam).payload
    if pm.field != field:
        raise FieldMismatch(f"mixed fields {pm.field} and {field}")
    return ParamTuple3D.from_payloads(field, _basis_change(field, p.payloads(), pm, lam))


def _basis_change(field, v, pm, lam):
    """apply_basis_change on payloads: the ParamPayloads3D of the image of the payloads v.

    pm is a 2x2 ScalarMatrix of field and lam a payload; the field's hooks
    are bound once.
    """
    add, mul = field._add, field._mul
    pinv = mat2_inv(pm)
    lam_inv = field._inv(lam)
    P = _entries2(pm)
    (i00, i01), (i10, i11) = _entries2(pinv)
    a, b, c, d, e, f, A, B, C, D, E, F = v

    def quad(pr, qr):
        # the quadratic pr (a, b, c) + qr (A, B, C), pushed through pm and divided by lam
        mix = (add(mul(pr, a), mul(qr, A)), add(mul(pr, b), mul(qr, B)), add(mul(pr, c), mul(qr, C)))
        return [mul(lam_inv, t) for t in _quad_transform(field, mix, P)]

    # the new degree-1 matrix is t pm, for t = pinv [[d, e], [D, E]]
    (p00, p01), (p10, p11) = P
    t00, t01 = add(mul(i00, d), mul(i01, D)), add(mul(i00, e), mul(i01, E))
    t10, t11 = add(mul(i10, d), mul(i11, D)), add(mul(i10, e), mul(i11, E))
    na, nb, nc = quad(i00, i01)
    nA, nB, nC = quad(i10, i11)
    return ParamPayloads3D(
        na, nb, nc,
        add(mul(t00, p00), mul(t01, p10)), add(mul(t00, p01), mul(t01, p11)), mul(lam, add(mul(i00, f), mul(i01, F))),
        nA, nB, nC,
        add(mul(t10, p00), mul(t11, p10)), add(mul(t10, p01), mul(t11, p11)), mul(lam, add(mul(i10, f), mul(i11, F))),
    )
