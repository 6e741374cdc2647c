import random

import pytest

from ttpkit.classify import classify_3d
from ttpkit.families import ParamTuple2D, ParamTuple3D, Presentation, build_C, build_T, build_Tgh
from ttpkit.freealg import Alphabet, NCPoly, parse_poly
from ttpkit.homology import BettiTable, build_q_complex, minimal_resolution
from ttpkit.koszulreg import (
    NotQuadratic,
    asreg_decide,
    dual_hilbert_convolution_ok,
    gorenstein_check,
    koszul_check,
    quadratic_dual,
    regraded_yoneda_koszul,
    yoneda_verify,
    zero_divisor_witness_holds,
)
from ttpkit.scalars import QQ, PrimeField


def T3(field=QQ, **kw):
    return ParamTuple3D.make(field, **kw)


def tgh(g, h, field=QQ):
    return build_Tgh(field.scalar(g), field.scalar(h))


def test_dual_of_commutative_plane_is_exterior():
    pres = build_C(ParamTuple2D.make(QQ, 0, 1, 0))  # zx - xz
    qd = quadratic_dual(pres)
    A = qd.dual.alphabet
    assert A.names == ("z'", "x'")
    rels = qd.dual.relations
    assert len(rels) == 3
    # the span contains x'^2, z'^2 and x'z' + z'x'
    from ttpkit.koszulreg import _relation_vectors, _span_equal

    expect = [
        parse_poly(A, QQ, "x'^2"),
        parse_poly(A, QQ, "z'^2"),
        parse_poly(A, QQ, "x'z' + z'x'"),
    ]
    assert _span_equal(QQ, _relation_vectors(qd.dual, rels), _relation_vectors(qd.dual, expect))


def test_dual_of_free_algebra_spans_every_word():
    xy = Alphabet(["x", "y"])
    qd = quadratic_dual(Presentation(xy, QQ, []))
    A = qd.dual.alphabet
    assert qd.relation_rank == 0 and len(qd.dual.relations) == 4
    from ttpkit.koszulreg import _relation_vectors, _span_equal

    words = [parse_poly(A, QQ, w) for w in ("x'x'", "x'y'", "y'x'", "y'y'")]
    assert _span_equal(QQ, _relation_vectors(qd.dual, qd.dual.relations), _relation_vectors(qd.dual, words))
    assert qd.dual.hilbert(3) == [1, 2, 0, 0]
    assert Presentation(xy, QQ, []).hilbert(3) == [1, 2, 4, 8]


def test_double_dual_returns_original_relation_space():
    pres = tgh(3, 5)
    qd = quadratic_dual(pres)
    dd = quadratic_dual(qd.dual)
    from ttpkit.koszulreg import _relation_vectors, _span_equal

    # double-primed names: strip back by comparing coefficient spans directly
    original = _relation_vectors(pres, pres.relations)
    recovered = [vec for vec in _relation_vectors(dd.dual, dd.dual.relations)]
    assert _span_equal(QQ, recovered, original)


def test_dual_rejects_nonquadratic():
    A2 = Alphabet(["x", "z"])
    cubic = parse_poly(A2, QQ, "zxz - x^3")
    with pytest.raises(NotQuadratic):
        quadratic_dual(Presentation(A2, QQ, [cubic]))


def test_koszul_check_on_nondegenerate_family():
    v = koszul_check(tgh(2, 3), 6)
    assert v.koszul and v.convolution_ok
    assert v.betti.b(3, 3) == 1 and v.betti.max_position() == 3


def test_koszul_check_flags_degenerate_family():
    v = koszul_check(tgh(2, 0), 6)
    assert not v.koszul
    assert (v.witness.data["i"], v.witness.data["j"]) == (3, 4)
    assert v.witness.data["count"] == 1


def test_koszul_check_ore_type_algebras():
    samples = [
        T3(d=1, E=1, a=2, b=3, c=4, B=5),       # identity endomorphism, any derivation
        T3(d=3, E=1, a=1, b=2, c=3),             # case 1.ii shape
        T3(e=1, d=1, E=1, a=2, b=1, c=4),        # Jordan block with derivation
    ]
    for p in samples:
        t = classify_3d(p)
        assert t.kind == "ore"
        from ttpkit.families import build_T

        v = koszul_check(build_T(t.normal_form), 6)
        assert v.koszul and v.convolution_ok


def test_koszul_check_two_generator_ttps():
    rng = random.Random(139)
    F = PrimeField(101)
    from ttpkit.classify import classify_2d_ttp

    done = 0
    while done < 3:
        a, b = rng.randrange(101), rng.randrange(101)
        p = ParamTuple2D.make(F, a, b, 1)
        if not classify_2d_ttp(p).is_ttp:
            continue
        v = koszul_check(build_C(p), 5)
        assert v.koszul and v.convolution_ok
        done += 1


def test_dual_hilbert_convolution_detects_nonkoszul():
    # the degenerate family fails the numerical identity as well
    pres = tgh(1, 0)
    qd = quadratic_dual(pres)
    assert not dual_hilbert_convolution_ok(pres, qd.dual, 6)


def test_yoneda_verify_nondegenerate():
    rng = random.Random(149)
    for _ in range(3):
        g, h = rng.randint(-5, 5), rng.randint(1, 6)
        report = yoneda_verify(QQ.scalar(g), QQ.scalar(h), 6)
        assert report.branch == "semisimple_dual" and report.ok


def test_yoneda_verify_degenerate_bigraded_match():
    report = yoneda_verify(QQ.scalar(2), QQ.zero(), 6)
    assert report.branch == "degenerate"
    assert report.dual_relations_match
    assert report.square_normal_forms_ok
    assert report.bigraded_match, report.details
    assert report.diagonal_ok


def test_regraded_yoneda_not_koszul_for_small_g():
    for g in (0, 1):
        v = regraded_yoneda_koszul(QQ.scalar(g), 5)
        assert not v.koszul, f"g={g}: {v}"


def test_gorenstein_clean_for_nondegenerate():
    pres = tgh(3, 2)
    res = minimal_resolution(pres, max_i=4, maxdeg=8)
    profile = gorenstein_check(pres, res.complex, 8)
    assert profile.clean and profile.top_degree == 3


def test_gorenstein_fails_for_reducible_with_E_zero():
    # case (i) shape: e = C = E = 0, a = B(1-d-B)
    field = QQ
    B, d = field.scalar(2), field.scalar(3)
    a = B * (field.one() - d - B)
    t = classify_3d(T3(f=1, a=a, d=d, B=B))
    assert t.kind == "reducible" and t.case == "i"
    assert zero_divisor_witness_holds(t)
    from ttpkit.families import build_T

    pres = build_T(t.normal_form)
    res = minimal_resolution(pres, max_i=4, maxdeg=7)
    profile = gorenstein_check(pres, res.complex, 7)
    assert not profile.clean


def test_asreg_ore_invertible_and_singular():
    t = classify_3d(T3(d=1, E=1, a=2, b=3, B=4))
    v = asreg_decide(t, evidence=True)
    assert v.decision and v.gorenstein.clean

    t2 = classify_3d(T3(d=1, E=0, B=1))  # sigma singular, delta(ker) = 0
    assert t2.kind == "ore"
    v2 = asreg_decide(t2)
    assert not v2.decision and v2.witness.kind == "zero_divisor"
    assert zero_divisor_witness_holds(t2)


def test_asreg_reducible_cases():
    # regular: E = 1, a + d != 0
    t = classify_3d(T3(f=1, a=2, d=3, E=1))
    v = asreg_decide(t, evidence=True)
    assert v.decision and v.gorenstein.clean
    # not regular: a + d = 0
    t2 = classify_3d(T3(f=1, a=2, d=-2, E=1))
    assert t2.kind == "reducible"
    v2 = asreg_decide(t2)
    assert not v2.decision and v2.witness.kind == "factorization"
    # not regular: E = 0
    t3 = classify_3d(T3(f=1, a=QQ.scalar(2) * (1 - QQ.scalar(3) - 2), d=3, B=2))
    assert t3.kind == "reducible" and t3.normal_form.E.is_zero()
    v3 = asreg_decide(t3)
    assert not v3.decision and v3.witness.kind == "zero_divisor"


def test_asreg_elliptic_h_dichotomy():
    # h = c - (a-1)(C+a-1): a=1, c=1, C=0 gives h = 1
    t = classify_3d(T3(f=1, A=1, d=-1, E=-1, a=1, b=0, B=2, c=1, C=0))
    v = asreg_decide(t, evidence=True)
    assert v.decision and v.gorenstein.clean
    # a=1, c=0: h = 0
    t2 = classify_3d(T3(f=1, A=1, d=-1, E=-1, a=1, b=0, B=2, c=0, C=0))
    v2 = asreg_decide(t2)
    assert not v2.decision and "not Koszul" in v2.clause


def test_q_complex_product_entries_span_defining_relations():
    # the entries of d3 * d2, read in the free algebra, span the relation space
    from ttpkit.koszulreg import _relation_vectors, _span_equal

    g, h = QQ.scalar(3), QQ.scalar(5)
    pres = build_Tgh(g, h)
    cx = build_q_complex(g, h)
    d3, d2 = cx.diffs[3], cx.diffs[2]
    entries = []
    for c in range(3):
        acc = NCPoly.zero(pres.alphabet, QQ)
        for k in range(3):
            acc = acc + d3[0][k] * d2[k][c]
        entries.append(acc)
    assert _span_equal(
        QQ,
        _relation_vectors(pres, entries),
        _relation_vectors(pres, pres.relations),
    )


def test_gorenstein_commutative_three_variables():
    # the polynomial ring in three variables through its product presentation
    pres = build_T(T3(d=1, E=1))
    res = minimal_resolution(pres, max_i=4, maxdeg=7)
    assert res.betti == BettiTable({(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1})
    profile = gorenstein_check(pres, res.complex, 7)
    assert profile.clean and profile.top_degree == 3


def test_asreg_elliptic_cross_validation_random():
    rng = random.Random(151)
    fields = [QQ, PrimeField(101)]
    done = 0
    for field in fields:
        for _ in range(3):
            a = field.scalar(rng.randint(-4, 4))
            B = field.scalar(rng.randint(-4, 4))
            c = field.scalar(rng.randint(-4, 4))
            C = field.scalar(rng.randint(-4, 4))
            b = (field.one() - a) * (field.scalar(2) - B)
            t = classify_3d(ParamTuple3D.make(field, f=1, A=1, d=-1, E=-1, a=a, b=b, B=B, c=c, C=C))
            assert t.kind == "elliptic"
            if t.elliptic_form.h.is_zero():
                continue
            v = asreg_decide(t, evidence=True)
            assert v.decision and v.gorenstein.clean
            res = minimal_resolution(build_Tgh(t.elliptic_form.g, t.elliptic_form.h), 5, 7)
            assert res.betti.max_position() == 3
            assert res.betti.b(3, 3) == 1
            done += 1
    assert done >= 4
