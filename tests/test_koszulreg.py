import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import dual_complex_gorenstein, reference_c_row, reference_t_space
from ttpkit.classify import classify_3d
from ttpkit.families import ParamTuple2D, ParamTuple3D, Presentation, apply_basis_change, build_C, build_T, build_Tgh
from ttpkit.freealg import Alphabet, NCPoly, parse_poly
from ttpkit.homology import BettiTable, build_q_complex, minimal_resolution
from ttpkit.koszulreg import (
    NotQuadratic,
    asreg_decide,
    dual_hilbert_convolution_ok,
    elliptic_decide,
    gorenstein_check,
    koszul_check,
    quadratic_dual,
    regraded_yoneda_koszul,
    yoneda_verify,
    zero_divisor_witness_holds,
)
from ttpkit.scalars import QQ, PrimeField, QuadExtField, ScalarMatrix


def T3(field=QQ, **kw):
    return ParamTuple3D.make(field, **kw)


def tgh(g, h, field=QQ):
    return build_Tgh(field.scalar(g), field.scalar(h))


def test_dual_of_commutative_plane_is_exterior():
    pres = build_C(ParamTuple2D.make(QQ, 0, 1, 0))  # zx - xz
    dual = quadratic_dual(pres)
    A = dual.alphabet
    assert A.names == ("z'", "x'")
    rels = dual.relations
    assert len(rels) == 3
    # the span contains x'^2, z'^2 and x'z' + z'x'
    from ttpkit.koszulreg import _relation_vectors, _span_equal

    expect = [
        parse_poly(A, QQ, "x'^2"),
        parse_poly(A, QQ, "z'^2"),
        parse_poly(A, QQ, "x'z' + z'x'"),
    ]
    assert _span_equal(QQ, _relation_vectors(dual, rels), _relation_vectors(dual, expect))


def test_dual_of_free_algebra_spans_every_word():
    xy = Alphabet(["x", "y"])
    dual = quadratic_dual(Presentation(xy, QQ, []))
    A = dual.alphabet
    assert len(dual.relations) == 4  # relation rank n^2 - 4 = 0
    from ttpkit.koszulreg import _relation_vectors, _span_equal

    words = [parse_poly(A, QQ, w) for w in ("x'x'", "x'y'", "y'x'", "y'y'")]
    assert _span_equal(QQ, _relation_vectors(dual, dual.relations), _relation_vectors(dual, words))
    assert dual.hilbert(3) == [1, 2, 0, 0]
    assert Presentation(xy, QQ, []).hilbert(3) == [1, 2, 4, 8]


def test_double_dual_returns_original_relation_space():
    pres = tgh(3, 5)
    dd = quadratic_dual(quadratic_dual(pres))
    from ttpkit.koszulreg import _relation_vectors, _span_equal

    # double-primed names: strip back by comparing coefficient spans directly
    original = _relation_vectors(pres, pres.relations)
    recovered = _relation_vectors(dd, dd.relations)
    assert _span_equal(QQ, recovered, original)


def test_dual_rejects_nonquadratic():
    A2 = Alphabet(["x", "z"])
    cubic = parse_poly(A2, QQ, "zxz - x^3")
    with pytest.raises(NotQuadratic):
        quadratic_dual(Presentation(A2, QQ, [cubic]))


def test_koszul_check_on_nondegenerate_family():
    v = koszul_check(tgh(2, 3), 6)
    assert v.koszul and v.convolution_ok
    assert v.betti.b(3, 3) == 1 and max(i for i, _ in v.betti.entries) == 3


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
    assert not dual_hilbert_convolution_ok(pres, quadratic_dual(pres), 6)


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
    profile = gorenstein_check(tgh(3, 2), 8)
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

    profile = gorenstein_check(build_T(t.normal_form), 7)
    assert not profile.clean


def ore_products(field, rng, count):
    """count classified Ore-type products over field, every other one with sigma = diag(d, E) singular.

    The derivation equations with e = D = 0 read A(d-1) = 0,
    B(d-1) = a(E-1), C(d-1) = b(E-1) and c(E-1) = 0.
    """
    one, zero = field.one(), field.zero()
    out = []
    while len(out) < count:
        d, E = (field.scalar(rng.randint(-4, 4)) for _ in range(2))
        if len(out) % 2:
            d, E = (zero, E) if rng.random() < 0.5 else (d, zero)
        elif d.is_zero() or E.is_zero():
            continue
        a, b, c, A, B, C = (field.scalar(rng.randint(-4, 4)) for _ in range(6))
        A = A if d == one else zero
        c = c if E == one else zero
        if E != one:
            a, b = B * (d - one) / (E - one), C * (d - one) / (E - one)
        elif d != one:
            B = C = zero
        t = classify_3d(ParamTuple3D.make(field, a=a, b=b, c=c, d=d, A=A, B=B, C=C, E=E))
        if t.is_ttp and t.kind == "ore":
            out.append(t)
    return out


# (case, clean) -> count in test_frobenius_check_agrees_with_the_dual_complex
FROBENIUS_VERDICTS = {
    ("C", True): 12, ("C", False): 7,
    ("Tgh", True): 6, ("Tgh h = 0", False): 3,
    ("ore", True): 20, ("ore", False): 20,
    ("reducible E = 0", False): 1,
    ("free", True): 1, ("free", False): 1,
}


def test_frobenius_check_agrees_with_the_dual_complex():
    # the Frobenius test on the quadratic dual against the former test, the
    # homology of the dualized minimal resolution: on every Koszul row of
    # the GF(3) C and Tgh censuses, on Ore products over Q and GF(101),
    # regular and singular, on the reducible product with E = 0, on
    # Tgh(g, 0), whose dual has no top degree, and on the free algebras
    # k<x> (regular of dimension 1) and k<x,y> (a dual top of dimension 2)
    gf3, maxdeg = PrimeField(3), 6
    cases = []
    for a, b, c in itertools.product(range(3), repeat=3):
        if reference_c_row(3, {"a": a, "b": b, "c": c})["koszul"] == "koszul":
            cases.append(("C", build_C(ParamTuple2D.make(gf3, a, b, c))))
    for g, h in itertools.product(range(3), repeat=2):
        assert elliptic_decide(gf3.scalar(g), gf3.scalar(h)).koszul == (h != 0)
        cases.append(("Tgh" if h else "Tgh h = 0", tgh(g, h, gf3)))
    rng = random.Random(211)
    for field in (QQ, PrimeField(101)):
        products = ore_products(field, rng, 20)
        assert {asreg_decide(t).decision for t in products} == {True, False}
        cases += [("ore", build_T(t.normal_form)) for t in products]
    t = classify_3d(T3(f=1, a=QQ.scalar(2) * (1 - QQ.scalar(3) - 2), d=3, B=2))
    assert t.kind == "reducible" and t.normal_form.E.is_zero()
    cases.append(("reducible E = 0", build_T(t.normal_form)))
    for names in (["x"], ["x", "y"]):
        cases.append(("free", Presentation(Alphabet(names), QQ, [])))
    verdicts = Counter()
    for label, pres in cases:
        profile = gorenstein_check(pres, maxdeg)
        res = minimal_resolution(pres, max_i=4, maxdeg=maxdeg)
        assert profile.clean == dual_complex_gorenstein(pres, res.complex, maxdeg), (label, pres, profile)
        verdicts[label, profile.clean] += 1
        if label == "Tgh h = 0":
            assert profile.top_degree is None, profile
    assert verdicts == Counter(FROBENIUS_VERDICTS)


def test_gorenstein_profile_is_invariant_under_basis_change():
    # asreg --evidence checks the job's own presentation, not its normal
    # form: the profile, failing ones included, must not see the difference.
    # GF(5) census products of both kinds, regular and not, each under a
    # random x, y -> GL2 and z -> scalar substitution, against the normal form
    gf5, maxdeg = PrimeField(5), 6
    rng = random.Random(223)
    rows = {}
    for values in reference_t_space(5, {"e": [0], "d": [3, 4], "E": [0, 1, 4]}):
        p = ParamTuple3D.make(gf5, **values)
        t = classify_3d(p)
        if t.is_ttp:
            rows.setdefault((t.kind, asreg_decide(t).decision), []).append((p, t))
    assert sorted(rows) == [("elliptic", False), ("elliptic", True), ("reducible", False), ("reducible", True)]
    clean = Counter()
    for key, pts in sorted(rows.items()):
        for p, t in rng.sample(pts, 4):
            while True:
                pm = ScalarMatrix(gf5, [[rng.randrange(5) for _ in range(2)] for _ in range(2)])
                if not pm.det().is_zero():
                    break
            q2 = apply_basis_change(p, pm, rng.randrange(1, 5))
            nf = build_Tgh(t.elliptic_form.g, t.elliptic_form.h) if t.kind == "elliptic" else build_T(t.normal_form)
            profile = gorenstein_check(build_T(q2), maxdeg)
            assert repr(profile) == repr(gorenstein_check(nf, maxdeg)), (key, q2)
            clean[(*key, profile.clean)] += 1
    assert clean == Counter({
        ("elliptic", True, True): 4, ("elliptic", False, False): 4,
        ("reducible", True, True): 4, ("reducible", False, False): 4,
    })
    # Ore products over Q whose normalization swaps x and y (gl2 [0 1; 1 0]),
    # and one whose normal form lives in Q(sqrt(3))
    for kw, field in ((dict(d=-2, E=-1, B=1, C=1, a=Fraction(3, 2), b=Fraction(3, 2)), QQ),
                      (dict(d=0, e=1, D=3, E=0), QuadExtField(QQ, 3))):
        p = ParamTuple3D.make(QQ, **kw)
        t = classify_3d(p)
        assert t.kind == "ore" and t.normal_form.field == field
        profile = gorenstein_check(build_T(p), maxdeg)
        assert profile.clean and repr(profile) == repr(gorenstein_check(build_T(t.normal_form), maxdeg))


def test_asreg_ore_invertible_and_singular():
    p = T3(d=1, E=1, a=2, b=3, B=4)
    assert asreg_decide(classify_3d(p)).decision and gorenstein_check(build_T(p), 8).clean

    t2 = classify_3d(T3(d=1, E=0, B=1))  # sigma singular, delta(ker) = 0
    assert t2.kind == "ore"
    v2 = asreg_decide(t2)
    assert not v2.decision and v2.witness.kind == "zero_divisor"
    assert zero_divisor_witness_holds(t2)


def test_asreg_reducible_cases():
    # regular: E = 1, a + d != 0
    p = T3(f=1, a=2, d=3, E=1)
    assert asreg_decide(classify_3d(p)).decision and gorenstein_check(build_T(p), 8).clean
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
    p = T3(f=1, A=1, d=-1, E=-1, a=1, b=0, B=2, c=1, C=0)
    assert asreg_decide(classify_3d(p)).decision and gorenstein_check(build_T(p), 8).clean
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
    profile = gorenstein_check(pres, 7)
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
            p = ParamTuple3D.make(field, f=1, A=1, d=-1, E=-1, a=a, b=b, B=B, c=c, C=C)
            t = classify_3d(p)
            assert t.kind == "elliptic"
            if t.elliptic_form.h.is_zero():
                continue
            assert asreg_decide(t).decision and gorenstein_check(build_T(p), 8).clean
            res = minimal_resolution(build_Tgh(t.elliptic_form.g, t.elliptic_form.h), 5, 7)
            assert max(i for i, _ in res.betti.entries) == 3
            assert res.betti.b(3, 3) == 1
            done += 1
    assert done >= 4
