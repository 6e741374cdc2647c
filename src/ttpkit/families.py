"""Builders and validators for the algebra families under study.

Three presentations recur throughout: the two-generator family
C(a,b,c) = k<x,z>/(zx - a x^2 - b xz - c z^2), the twelve-coefficient
three-generator family T on x,y,z, and its elliptic renormalization
T(g,h) on x,y,w.  This module also houses the coefficient-level action
of the basic isomorphisms (GL2 on x,y and rescaling of z), the Ore-data
derivation check, and the degreewise twisted-tensor-product dimension
test.
"""

from __future__ import annotations

from dataclasses import dataclass

from .freealg import Alphabet, NCPoly
from .rewrite import NotCompleted, RewriteSystem
from .scalars import CharTwo, DivisionByZero, Scalar, ScalarMatrix

PARAM_NAMES_3D = ("a", "b", "c", "d", "e", "f", "A", "B", "C", "D", "E", "F")


@dataclass(frozen=True)
class ParamTuple2D:
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


@dataclass(frozen=True)
class ParamTuple3D:
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
        unknown = set(kw) - set(PARAM_NAMES_3D)
        if unknown:
            raise ValueError(f"unknown parameters {sorted(unknown)}")
        return ParamTuple3D(**{k: field.scalar(kw.get(k, 0)) for k in PARAM_NAMES_3D})

    @property
    def field(self):
        return self.a.field

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

    def system(self):
        """The oriented, interreduced rule set (no completion certificate)."""
        return RewriteSystem.from_relations(self.alphabet, self.field, self.relations)

    def completed(self, d):
        """Rewrite system completed to degree d (cached and extended)."""
        if self._rs is None:
            self._rs = self.system()
        if (self._rs.completed_to or -1) < d:
            self._rs, _ = self._rs.complete(d)
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


def build_T(p):
    """k<x,y,z> modulo zx - tau(zx), zy - tau(zy), xy - yx, with y < x < z."""
    field = p.field
    alphabet = Alphabet(["y", "x", "z"])

    def tau_relation(lead, qx, qxy, qy, lx, ly, qz):
        return NCPoly(alphabet, field, {
            alphabet.word(lead): field.one(),
            alphabet.word("x^2"): -qx,
            alphabet.word("xy"): -qxy,
            alphabet.word("y^2"): -qy,
            alphabet.word("xz"): -lx,
            alphabet.word("yz"): -ly,
            alphabet.word("z^2"): -qz,
        })

    rel_zx = tau_relation("zx", p.a, p.b, p.c, p.d, p.e, p.f)
    rel_zy = tau_relation("zy", p.A, p.B, p.C, p.D, p.E, p.F)
    comm = NCPoly(alphabet, field, {alphabet.word("xy"): field.one(), alphabet.word("yx"): -field.one()})
    return Presentation(alphabet, field, [rel_zx, rel_zy, comm])


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


@dataclass(frozen=True)
class EllipticForm:
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


@dataclass(frozen=True)
class OreData:
    """Degree-1 endomorphism matrix and quadratic derivation coefficients."""

    sigma: ScalarMatrix  # [[d, e], [D, E]]: sigma(x) = dx + ey, sigma(y) = Dx + Ey
    a: Scalar
    b: Scalar
    c: Scalar
    A: Scalar
    B: Scalar
    C: Scalar

    @staticmethod
    def from_params(p):
        sigma = ScalarMatrix(p.field, [[p.d, p.e], [p.D, p.E]])
        return OreData(sigma, p.a, p.b, p.c, p.A, p.B, p.C)

    @property
    def field(self):
        return self.a.field


def derivation_residuals(o):
    """Cubic-coefficient differences of sigma(x)d(y)+d(x)y = sigma(y)d(x)+d(y)x.

    Returns [(monomial, lhs - rhs coefficient)] for x^3, x^2y, xy^2, y^3;
    the data defines a derivation exactly when all four vanish.
    """
    d, e = o.sigma[0, 0], o.sigma[0, 1]
    D, E = o.sigma[1, 0], o.sigma[1, 1]
    a, b, c, A, B, C = o.a, o.b, o.c, o.A, o.B, o.C
    one = o.field.one()
    return [
        ("x^3", A * (d - one) - a * D),
        ("x^2y", B * (d - one) + a * (one - E) + e * A - b * D),
        ("xy^2", C * (d - one) + b * (one - E) + e * B - c * D),
        ("y^3", c * (one - E) + e * C),
    ]


def derivation_check(o):
    """Whether the quadratic data extends to a well-defined derivation."""
    return all(v.is_zero() for _, v in derivation_residuals(o))


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


def ideal_membership(poly, pres, d):
    """Whether a homogeneous element of degree <= d lies in the relation ideal."""
    if poly.is_zero():
        return True
    if poly.degree() > d:
        raise NotCompleted(f"element has degree {poly.degree()} > completion bound {d}")
    return pres.completed(d).reduce(poly).is_zero()


def mat2_inv(m):
    try:
        return m.inverse()
    except DivisionByZero:
        raise ValueError("change of basis must be invertible") from None


def _quad_transform(q, pm):
    """Push a quadratic (qa, qb, qc) = qa x^2 + qb xy + qc y^2 through x,y -> rows of pm."""
    qa, qb, qc = q
    p00, p01 = pm[0, 0], pm[0, 1]
    p10, p11 = pm[1, 0], pm[1, 1]
    na = qa * p00 * p00 + qb * p00 * p10 + qc * p10 * p10
    nb = 2 * qa * p00 * p01 + qb * (p00 * p11 + p01 * p10) + 2 * qc * p10 * p11
    nc = qa * p01 * p01 + qb * p01 * p11 + qc * p11 * p11
    return (na, nb, nc)


def apply_basis_change(p, pm, lam):
    """Coefficient action of (x,y) -> pm rows together with z -> lam * z.

    pm is the matrix of the GL2 substitution (row i = image of the i-th
    generator of x,y) and lam rescales z.  Returns the parameter tuple of
    the isomorphic presentation; the substitution x -> pm(x), y -> pm(y),
    z -> lam z carries the old relation ideal onto the new one.
    """
    field = p.field
    lam = field.scalar(lam)
    pinv = mat2_inv(pm)
    lam_inv = lam.inv()

    qx, qy = (p.a, p.b, p.c), (p.A, p.B, p.C)
    new_q = []
    for row in range(2):
        pr, qr = pinv[row, 0], pinv[row, 1]
        mix = tuple(pr * u + qr * v for u, v in zip(qx, qy))
        out = _quad_transform(mix, pm)
        new_q.append(tuple(lam_inv * t for t in out))

    sigma = ScalarMatrix(field, [[p.d, p.e], [p.D, p.E]])
    sigma2 = pinv * sigma * pm

    fF = [lam * (pinv[0, 0] * p.f + pinv[0, 1] * p.F), lam * (pinv[1, 0] * p.f + pinv[1, 1] * p.F)]

    return ParamTuple3D(
        a=new_q[0][0], b=new_q[0][1], c=new_q[0][2],
        d=sigma2[0, 0], e=sigma2[0, 1], f=fF[0],
        A=new_q[1][0], B=new_q[1][1], C=new_q[1][2],
        D=sigma2[1, 0], E=sigma2[1, 1], F=fF[1],
    )


def basis_change_substitution(pres_target, pm, lam):
    """Letter images {x, y, z} -> NCPoly realizing the basis change in pres_target."""
    field = pres_target.field
    alphabet = pres_target.alphabet
    x = NCPoly.letter(alphabet, field, "x")
    y = NCPoly.letter(alphabet, field, "y")
    z = NCPoly.letter(alphabet, field, "z")
    return {
        "x": x.scale(pm[0, 0]) + y.scale(pm[0, 1]),
        "y": x.scale(pm[1, 0]) + y.scale(pm[1, 1]),
        "z": z.scale(field.scalar(lam)),
    }
