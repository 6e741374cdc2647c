import random
from fractions import Fraction

import pytest
from helpers import basis_change_substitution, derivation_check, ideal_membership, substitute

from ttpkit.families import (
    EllipticForm,
    ParamTuple2D,
    ParamTuple3D,
    Presentation,
    apply_basis_change,
    build_C,
    build_T,
    build_Tgh,
    derivation_residuals,
    twisting_axiom_mismatch,
)
from ttpkit.freealg import NCPoly, parse_poly
from ttpkit.scalars import QQ, CharTwo, PrimeField, ScalarMatrix


def T3(field=QQ, **kw):
    return ParamTuple3D.make(field, **kw)


def test_build_C_relation():
    pres = build_C(ParamTuple2D.make(QQ, 1, -1, 1))
    assert len(pres.relations) == 1
    assert pres.relations[0] == parse_poly(pres.alphabet, QQ, "zx - x^2 + xz - z^2")


def test_build_T_ore_shape_has_no_z2():
    pres = build_T(T3(a=1, b=2, d=3, A=4, E=5))  # f = F = 0
    for rel in pres.relations:
        assert rel.coeff("z^2").is_zero()


def test_build_Tgh_relations():
    g, h = QQ.zero(), QQ.zero()
    pres = build_Tgh(g, h)
    A = pres.alphabet
    assert pres.relations[0] == parse_poly(A, QQ, "wy + yw - x^2")
    assert pres.relations[1] == parse_poly(A, QQ, "w^2")
    assert pres.relations[2] == parse_poly(A, QQ, "xy - yx")
    with pytest.raises(CharTwo):
        build_Tgh(PrimeField(2).zero(), PrimeField(2).one())


def test_derivation_check_identity_sigma():
    rng = random.Random(83)
    for _ in range(10):
        p = T3(
            d=1, E=1,
            a=rng.randint(-9, 9), b=rng.randint(-9, 9), c=rng.randint(-9, 9),
            A=rng.randint(-9, 9), B=rng.randint(-9, 9), C=rng.randint(-9, 9),
        )
        assert derivation_check(p)


def test_derivation_check_first_equation_fails():
    p = T3(d=2, E=0, A=1)
    assert not derivation_check(p)
    res = dict(derivation_residuals(p))
    assert res["x^3"] == QQ.one()  # A(d-1) = 1


def test_derivation_check_zero_delta():
    for d, e, D, E in [(2, 3, 4, 5), (0, 0, 0, 0), (1, 0, 0, 7)]:
        p = T3(d=d, e=e, D=D, E=E)
        assert derivation_check(p)


def test_twisting_axiom_identity_tuple():
    assert twisting_axiom_mismatch(T3(d=1, E=1), 3) is None


def test_twisting_axiom_rejects_mixed_terms():
    # f = 1, A = 1 with d != -1 cannot reach the product dimensions
    assert twisting_axiom_mismatch(T3(f=1, A=1, d=0, E=1), 3) is not None


def test_twisting_axiom_matches_derivation_check_for_ore_tuples():
    rng = random.Random(89)
    F = PrimeField(7)
    samples = []
    for _ in range(20):
        samples.append(T3(
            F,
            a=rng.randrange(7), b=rng.randrange(7), c=rng.randrange(7),
            d=rng.randrange(7), e=rng.randrange(7),
            A=rng.randrange(7), B=rng.randrange(7), C=rng.randrange(7),
            D=rng.randrange(7), E=rng.randrange(7),
        ))
    for _ in range(5):
        # identity sigma with arbitrary quadratic part always passes
        samples.append(T3(F, d=1, E=1, a=rng.randrange(7), b=rng.randrange(7),
                          c=rng.randrange(7), B=rng.randrange(7)))
        # zero derivation with arbitrary sigma always passes
        samples.append(T3(F, d=rng.randrange(7), e=rng.randrange(7),
                          D=rng.randrange(7), E=rng.randrange(7)))
    verdicts = set()
    for p in samples:
        ok = derivation_check(p)
        assert ok == (twisting_axiom_mismatch(p, 3) is None)
        verdicts.add(ok)
    assert verdicts == {True, False}


def test_ideal_membership():
    pres = build_T(T3(f=1, a=2, b=1, A=1, d=-1, E=-1, B=1, C=0, c=0))
    A = pres.alphabet
    assert ideal_membership(parse_poly(A, QQ, "xy - yx"), pres, 4)
    assert not ideal_membership(parse_poly(A, QQ, "x^3"), pres, 4)


def test_elliptic_form_values():
    a, B, c, C = QQ.scalar(1), QQ.scalar(2), QQ.scalar(1), QQ.scalar(0)
    ef = EllipticForm.from_params(a, B, c, C)
    assert ef.beta.is_zero() and ef.g.is_zero() and ef.h == QQ.one()
    a2 = QQ.scalar(3)
    ef2 = EllipticForm.from_params(a2, QQ.scalar(1), QQ.scalar(5), QQ.scalar(7))
    assert ef2.beta == QQ.one()
    assert ef2.gamma == QQ.scalar(11)
    assert ef2.g == QQ.scalar(11) - QQ.scalar(Fraction(1, 4))
    assert ef2.h == QQ.scalar(5) - QQ.scalar(2) * QQ.scalar(9)


def test_apply_basis_change_z_rescale():
    p = T3(a=3, b=5, c=7, d=2, e=0, f=2, A=1, B=4, C=6, E=9, F=0)
    lam = QQ.scalar(Fraction(1, 2))  # z -> z/2 makes f' = 1
    q = apply_basis_change(p, ScalarMatrix.identity(QQ, 2), lam)
    assert q.f == QQ.one()
    assert q.a == p.a * 2 and q.b == p.b * 2 and q.A == p.A * 2
    assert q.d == p.d and q.E == p.E


def test_apply_basis_change_swap():
    p = T3(a=1, b=2, c=3, d=4, e=5, f=6, A=7, B=8, C=9, D=10, E=11, F=12)
    swap = ScalarMatrix(QQ, [[0, 1], [1, 0]])
    q = apply_basis_change(p, swap, 1)
    assert (q.a, q.b, q.c) == (p.C, p.B, p.A)
    assert (q.A, q.B, q.C) == (p.c, p.b, p.a)
    assert (q.d, q.e, q.D, q.E) == (p.E, p.D, p.e, p.d)
    assert (q.f, q.F) == (p.F, p.f)


def test_apply_basis_change_round_trip_isomorphism():
    # the substitution carries the old relations into the new ideal and back
    rng = random.Random(97)
    F = PrimeField(101)
    for _ in range(10):
        p = T3(F, **{k: rng.randrange(101) for k in "abcdef"},
               **{k: rng.randrange(101) for k in "ABCDEF"})
        rows = [[rng.randrange(101) for _ in range(2)] for _ in range(2)]
        pm = ScalarMatrix(F, rows)
        if (pm[0, 0] * pm[1, 1] - pm[0, 1] * pm[1, 0]).is_zero():
            continue
        lam = F.scalar(rng.randrange(1, 101))
        q = apply_basis_change(p, pm, lam)
        pres_p, pres_q = build_T(p), build_T(q)
        fwd = basis_change_substitution(pres_q, pm, lam)
        for rel in pres_p.relations:
            assert ideal_membership(substitute(rel, fwd), pres_q, 2)
        from ttpkit.families import mat2_inv

        pinv = mat2_inv(pm)
        back = basis_change_substitution(pres_p, pinv, lam.inv())
        for rel in pres_q.relations:
            assert ideal_membership(substitute(rel, back), pres_p, 2)


def test_tgh_matches_elliptic_presentation_under_change_of_variables():
    rng = random.Random(101)
    for _ in range(6):
        a, B, c, C = (QQ.scalar(rng.randint(-4, 4)) for _ in range(4))
        b = (QQ.one() - a) * (QQ.scalar(2) - B)
        p = T3(a=a, b=b, c=c, d=-1, e=0, f=1, A=1, B=B, C=C, D=0, E=-1, F=0)
        ef = EllipticForm.from_params(a, B, c, C)
        ttp = build_T(p)
        tgh = build_Tgh(ef.g, ef.h)
        half_beta = ef.beta / 2
        # map from the x,y,w presentation into the x,y,z one
        x = NCPoly.letter(ttp.alphabet, QQ, "x")
        y = NCPoly.letter(ttp.alphabet, QQ, "y")
        z = NCPoly.letter(ttp.alphabet, QQ, "z")
        fwd = {"x": x - y.scale(half_beta), "y": y, "w": -x + y.scale(a - 1) + z}
        for rel in tgh.relations:
            assert ideal_membership(substitute(rel, fwd), ttp, 2)
        # and back again
        xw = NCPoly.letter(tgh.alphabet, QQ, "x")
        yw = NCPoly.letter(tgh.alphabet, QQ, "y")
        ww = NCPoly.letter(tgh.alphabet, QQ, "w")
        xi = xw + yw.scale(half_beta)
        back = {"x": xi, "y": yw, "z": ww + xi - yw.scale(a - 1)}
        for rel in ttp.relations:
            assert ideal_membership(substitute(rel, back), tgh, 2)


def test_presentation_rejects_inhomogeneous():
    alphabet = build_C(ParamTuple2D.make(QQ, 0, 0, 0)).alphabet
    bad = parse_poly(alphabet, QQ, "zx - x")
    with pytest.raises(ValueError):
        Presentation(alphabet, QQ, [bad])
