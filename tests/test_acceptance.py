"""Acceptance suite: one test per criterion, one pass line each.

Run with `pytest -s tests/test_acceptance.py` to see the pass lines;
every check is exact (no tolerances anywhere).
"""

import random
from fractions import Fraction

from helpers import (
    assert_poly_matches,
    compose_check,
    expected_g1_coeffs,
    expected_g2_coeffs,
    make_params3d,
    reference_t_space,
)
from ttpkit.classify import classify_2d_ttp, classify_3d, congruence_verify, graded_iso_type_2d
from ttpkit.families import (
    EllipticForm,
    ParamTuple2D,
    ParamTuple3D,
    build_C,
    build_T,
    build_Tgh,
)
from ttpkit.freealg import NCPoly
from ttpkit.homology import (
    BettiTable,
    build_p_complex,
    build_q_complex,
    exactness_profile,
    minimal_resolution,
)
from ttpkit.koszulreg import (
    asreg_decide,
    dual_hilbert_convolution_ok,
    gorenstein_check,
    koszul_check,
    quadratic_dual,
    regraded_yoneda_koszul,
    yoneda_verify,
    zero_divisor_witness_holds,
)
from ttpkit.rewrite import degree3_overlap_elements
from ttpkit.scalars import QQ, PrimeField
from ttpkit.sequences import efgh, efgh_table, fn_nonvanishing


def report(n, text):
    print(f"ACCEPTANCE {n:>2} PASS: {text}")


def test_criterion_01_fibonacci_witness():
    pres = build_C(ParamTuple2D.make(QQ, 1, -1, 1))
    assert pres.hilbert(5) == [1, 2, 3, 5, 8, 13]
    rng = random.Random(1001)
    F = PrimeField(101)
    done = 0
    while done < 25:
        a, b = rng.randrange(101), rng.randrange(101)
        if not fn_nonvanishing(F.scalar(a), F.scalar(b), 20).all_nonzero:
            continue
        dims = build_C(ParamTuple2D.make(F, a, b, 1)).hilbert(5)
        assert dims == [1, 2, 3, 4, 5, 6], (a, b, dims)
        done += 1
    report(1, "Fibonacci dichotomy: (1,2,3,5,8,13) at the degenerate point, "
              "(1,...,6) at 25 nonvanishing samples")


def test_criterion_02_recurrence_identities():
    rng = random.Random(1002)
    for field in (QQ, PrimeField(7), PrimeField(101)):
        for _ in range(10):
            if field is QQ:
                a = field.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
                b = field.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
            else:
                a = field.scalar(rng.randrange(field.p))
                b = field.scalar(rng.randrange(field.p))
            pres = build_C(ParamTuple2D(a, b, field.one()))
            rs = pres.completed(8)
            A2 = pres.alphabet
            for n in range(7):
                row = efgh(a, b, n)
                element = NCPoly(A2, field, {
                    A2.word("z" + "x" * n + "z"): row.e,
                    A2.word("z" + "x" * (n + 1)): -row.f,
                    A2.word("x" * (n + 1) + "z"): -row.g,
                    A2.word("x" * (n + 2)): -row.h,
                })
                assert rs.reduce(element).is_zero(), (a, b, n)
            for n, row in enumerate(efgh_table(a, -a, 10)):
                assert row.f == (field.one() - a) ** n
    report(2, "cubic-rule identity reduces to 0 for n <= 6 over Q, GF(7), GF(101); "
              "diagonal specialization is (1-a)^n")


def test_criterion_03_congruence_witnesses():
    rng = random.Random(1003)

    def admissible(p):
        return classify_2d_ttp(p).is_ttp

    # branch with q = -1 (needs sqrt(1-a) generically)
    done = 0
    while done < 10:
        a = rng.randint(-30, 30)
        p = ParamTuple2D.make(QQ, a, -1, 1)
        if a == 1 or not admissible(p):
            continue
        t = graded_iso_type_2d(classify_2d_ttp(p))
        cd = t.witness
        assert congruence_verify(cd)
        ext = cd.n.field
        one_minus_a = ext.embed(QQ.scalar(1 - a)) if ext != QQ else QQ.scalar(1 - a)
        assert cd.n.det() * cd.n.det() == one_minus_a  # det N = sqrt(1-a)
        done += 1

    # parabolic branch: a = (b-1)^2 / 4
    done = 0
    while done < 10:
        b = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        a = (b - 1) ** 2 / 4
        p = ParamTuple2D.make(QQ, a, b, 1)
        if not admissible(p):
            continue
        t = graded_iso_type_2d(classify_2d_ttp(p))
        assert t.kind == "jordan" and congruence_verify(t.witness)
        done += 1

    # generic branch: det N = (1+b)/(1+q)
    done = 0
    while done < 10:
        a, b = rng.randint(-8, 8), rng.randint(-8, 8)
        p = ParamTuple2D.make(QQ, a, b, 1)
        aa, bb = QQ.scalar(a), QQ.scalar(b)
        if bb == QQ.scalar(-1) or (4 * aa - (bb - 1) ** 2).is_zero() or not admissible(p):
            continue
        t = graded_iso_type_2d(classify_2d_ttp(p))
        cd = t.witness
        assert congruence_verify(cd)
        F2 = cd.n.field
        q = t.q if t.q.field == F2 else F2.embed(t.q)
        b2 = bb if F2 == QQ else F2.embed(bb)
        assert cd.n.det() == (F2.one() + b2) / (F2.one() + q)
        done += 1
    report(3, "all three congruence witnesses verified symbolically at 10 samples "
              "per branch, with determinant formulas and on-demand extensions")


def test_criterion_04_obstruction_elements_and_trichotomy():
    rng = random.Random(1004)
    F = PrimeField(101)
    for _ in range(50):
        p = make_params3d(
            F,
            a=rng.randrange(101), b=rng.randrange(101), c=rng.randrange(101),
            d=rng.randrange(101), e=rng.randrange(101), f=1,
            A=rng.randrange(101), B=rng.randrange(101), C=rng.randrange(101),
            E=rng.randrange(101),
        )
        g1, g2 = degree3_overlap_elements(p)
        assert_poly_matches(g1, expected_g1_coeffs(p))
        assert_poly_matches(g2, expected_g2_coeffs(p))

    strata = [
        (make_params3d(QQ, a=1, b=0, c=4, d=-1, e=0, f=1, A=0, B=0, C=0, E=1), 0, 11),
        (make_params3d(QQ, a=2, b=0, c=0, d=3, e=0, f=1, A=0, B=0, C=0, E=1), 1, 10),
        (make_params3d(QQ, a=2, b=3, c=4, d=5, e=1, f=1, A=1, B=6, C=7, E=8), 2, 9),
        (make_params3d(QQ, a=3, b=-4, c=1, d=-1, e=0, f=1, A=1, B=0, C=2, E=-1), 1, 10),
    ]
    for p, span_dim, dim3 in strata:
        g1, g2 = degree3_overlap_elements(p)
        polys = [g for g in (g1, g2) if not g.is_zero()]
        if len(polys) == 2 and g1.monic() == g2.monic():
            polys = polys[:1]
        assert len(polys) == span_dim
        tup = ParamTuple3D.make(
            QQ, **{k: getattr(p, k) for k in "abcdef"}, **{k: getattr(p, k) for k in "ABCDEF"}
        )
        assert build_T(tup).hilbert(3)[3] == dim3
    report(4, "both degree-3 obstruction elements match their displayed "
              "coefficients at 50 samples; dim T_3 trichotomy 11/10/9 realized")


def test_criterion_05_classification_partition_gf3():
    F = PrimeField(3)
    space = list(reference_t_space(3, {}))
    assert len(space) == 2 * 3**7 + 2 * 3**6
    counts = {}
    unknowns = []
    hilbert_checked = 0
    for values in space:
        p = ParamTuple3D.make(F, **values)
        t = classify_3d(p, bound=50)
        assert t.kind in ("reducible", "elliptic", "not_ttp", "unknown")
        if t.kind == "reducible":
            key = f"reducible:{t.case}"
            assert t.certified_to is None  # GF(3) scans close their cycles
        elif t.kind == "unknown":
            unknowns.append(values)
            key = "unknown"
        else:
            key = t.kind
        counts[key] = counts.get(key, 0) + 1
        if t.kind in ("reducible", "elliptic"):
            assert build_T(t.normal_form).hilbert(4) == [1, 3, 6, 10, 15], values
            hilbert_checked += 1
    assert sum(counts.values()) == len(space)
    assert set(k.split(":")[1] for k in counts if k.startswith("reducible:")) <= {
        "i", "ii", "iii", "iv", "v", "vi", "vii"
    }
    if unknowns:
        print(f"  (note: {len(unknowns)} undecided tuples logged, not failed: {unknowns[:3]} ...)")
    assert counts.get("elliptic", 0) > 0 and counts.get("not_ttp", 0) > 0
    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    report(5, f"GF(3) partition over {len(space)} tuples ({summary}); "
              f"{hilbert_checked} product-dimension checks passed, "
              f"{len(unknowns)} unknowns")


def test_criterion_06_elliptic_groebner_basis():
    rng = random.Random(1006)
    for _ in range(10):
        a, B, c, C = (QQ.scalar(rng.randint(-9, 9)) for _ in range(4))
        beta = QQ.scalar(2) - B
        p = ParamTuple3D.make(
            QQ, a=a, b=(QQ.one() - a) * beta, c=c, d=-1, e=0, f=1,
            A=1, B=B, C=C, D=0, E=-1, F=0,
        )
        pres = build_T(p)
        rs = pres.completed(4)
        assert len(rs.rules) == 4
        A3 = pres.alphabet
        by_high = {A3.word_str(r.high): r for r in rs.rules}
        assert set(by_high) == {"xy", "zy", "z^2", "zx^2"}
        one = QQ.one()
        assert by_high["xy"].tail == NCPoly(A3, QQ, {A3.word("yx"): one})
        assert by_high["z^2"].tail == NCPoly(A3, QQ, {
            A3.word("zx"): one, A3.word("x^2"): -a, A3.word("yx"): -(one - a) * beta,
            A3.word("y^2"): -c, A3.word("xz"): one,
        })
        assert by_high["zy"].tail == NCPoly(A3, QQ, {
            A3.word("x^2"): one, A3.word("yx"): B, A3.word("y^2"): C, A3.word("yz"): -one,
        })
        assert by_high["zx^2"].tail == NCPoly(A3, QQ, {
            A3.word("x^2z"): one, A3.word("yxz"): -beta, A3.word("x^3"): beta,
            A3.word("yx^2"): B * beta, A3.word("y^2x"): C * beta, A3.word("yzx"): -beta,
        })
        assert max(r.degree() for r in rs.rules) == 3  # nothing past degree 3
        # normal words are y^i x^j (zx)^k z^l with l in {0, 1}
        for n, words in enumerate(rs.normal_words(4)):
            expect = sum(
                1
                for i in range(n + 1)
                for j in range(n + 1)
                for k in range(n + 1)
                for l in (0, 1)
                if i + j + 2 * k + l == n
            )
            assert len(words) == expect
    report(6, "ten random elliptic instances: the four displayed rules, no "
              "completion past degree 3, basis counts match the (zx)-word shape")


def test_criterion_07_resolution_verification():
    rng = random.Random(1007)
    for _ in range(5):
        g = QQ.scalar(rng.randint(-9, 9))
        h = QQ.scalar(rng.randint(1, 9))
        q = build_q_complex(g, h)
        assert compose_check(q, 8)
        assert exactness_profile(q, maxdeg=8) == {(0, 0): 1}
        res = minimal_resolution(build_Tgh(g, h), max_i=6, maxdeg=8)
        assert res.betti == BettiTable({(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1})
    for _ in range(5):
        g = QQ.scalar(rng.randint(-9, 9))
        p = build_p_complex(g, max_i=9)
        assert compose_check(p, 8)
        assert exactness_profile(p, maxdeg=8) == {(0, 0): 1}
        res = minimal_resolution(build_Tgh(g, QQ.zero()), max_i=7, maxdeg=8)
        expect = {(0, 0): 1, (1, 1): 3, (2, 2): 3}
        for i in range(3, 8):
            expect[(i, i)] = 1
            if i + 1 <= 8:
                expect[(i, i + 1)] = 1
        assert res.betti == BettiTable(expect)
    report(7, "explicit complexes compose to zero and resolve the trivial module "
              "to degree 8; minimal resolutions reproduce both Betti tables")


def test_criterion_08_koszul_dichotomy():
    rng = random.Random(1008)
    for _ in range(4):
        g = QQ.scalar(rng.randint(-9, 9))
        h = QQ.scalar(rng.randint(1, 9))
        pres = build_Tgh(g, h)
        v = koszul_check(pres, 8)
        assert v.koszul
        assert dual_hilbert_convolution_ok(pres, quadratic_dual(pres), 8)
    for _ in range(3):
        g = QQ.scalar(rng.randint(-9, 9))
        v = koszul_check(build_Tgh(g, QQ.zero()), 8)
        assert not v.koszul
        assert (v.witness.data["i"], v.witness.data["j"], v.witness.data["count"]) == (3, 4, 1)
    report(8, "Koszul iff h != 0 at position bound 8, degenerate witness "
              "b[3,4] = 1, dual Hilbert convolution identity through degree 8")


def test_criterion_09_yoneda_verification():
    rng = random.Random(1009)
    for _ in range(3):
        g = QQ.scalar(rng.randint(-9, 9))
        h = QQ.scalar(rng.randint(1, 9))
        rep = yoneda_verify(g, h, 8)
        assert rep.branch == "semisimple_dual" and rep.ok
    for g in (QQ.scalar(0), QQ.scalar(2), QQ.scalar(-3)):
        rep = yoneda_verify(g, QQ.zero(), 8)
        assert rep.branch == "degenerate"
        assert rep.dual_relations_match and rep.square_normal_forms_ok
        assert rep.bigraded_match and rep.diagonal_ok
    report(9, "dual relations match in the nondegenerate branch; degenerate "
              "Yoneda table equals the Betti table through (8,9) with "
              "one-dimensional (i,i) and (i,i+1) rows; squares reduce as displayed")


def test_criterion_10_regularity_decisions():
    rng = random.Random(1010)
    # five Ore samples with invertible degree-1 endomorphism
    done = 0
    while done < 5:
        d, E = rng.randint(-5, 5), rng.randint(-5, 5)
        if d == 0 or E == 0:
            continue
        if d == 1 and E == 1:
            kw = dict(d=1, E=1, a=rng.randint(-5, 5), b=rng.randint(-5, 5), B=rng.randint(-5, 5))
        elif E == 1:
            kw = dict(d=d, E=1, a=rng.randint(-5, 5), b=rng.randint(-5, 5), c=rng.randint(-5, 5))
        elif d == 1:
            kw = dict(d=1, E=E, B=rng.randint(-5, 5))
        else:
            B, C = QQ.scalar(rng.randint(-5, 5)), QQ.scalar(rng.randint(-5, 5))
            dd, EE = QQ.scalar(d), QQ.scalar(E)
            kw = dict(d=d, E=E, B=B, C=C,
                      a=B * (dd - 1) / (EE - 1), b=C * (dd - 1) / (EE - 1))
        p = ParamTuple3D.make(QQ, **kw)
        t = classify_3d(p)
        assert t.kind == "ore", (kw, t)
        assert asreg_decide(t).decision and gorenstein_check(build_T(p), 8).clean
        done += 1
    # two Ore samples with singular endomorphism and a zero-divisor witness
    for kw in (dict(d=1, E=0, B=2), dict(d=1, E=0, B=0)):
        t = classify_3d(ParamTuple3D.make(QQ, **kw))
        assert t.kind == "ore"
        v = asreg_decide(t)
        assert not v.decision and v.witness.kind == "zero_divisor"
        assert zero_divisor_witness_holds(t)
    # reducible with E = 0: the displayed zero divisor
    B, d = QQ.scalar(2), QQ.scalar(3)
    t = classify_3d(ParamTuple3D.make(QQ, f=1, a=B * (1 - d - B), d=d, B=B))
    assert t.kind == "reducible" and t.normal_form.E.is_zero()
    v = asreg_decide(t)
    assert not v.decision and zero_divisor_witness_holds(t)
    # reducible with a + d = 0: the factorization witness
    t = classify_3d(ParamTuple3D.make(QQ, f=1, a=2, d=-2, E=1))
    v = asreg_decide(t)
    assert not v.decision and v.witness.kind == "factorization"
    a, d = t.normal_form.a, t.normal_form.d
    A2 = build_C(ParamTuple2D.make(QQ, 0, 0, 0)).alphabet
    x, z = NCPoly.letter(A2, QQ, "x"), NCPoly.letter(A2, QQ, "z")
    lhs = z * z - z * x + (x * z).scale(d) + (x * x).scale(a)
    assert lhs == (z - x.scale(a)) * (z - x)
    # reducible regular
    p = ParamTuple3D.make(QQ, f=1, a=2, d=3, E=1)
    assert asreg_decide(classify_3d(p)).decision and gorenstein_check(build_T(p), 8).clean
    # elliptic on both sides of the h dichotomy
    p = ParamTuple3D.make(QQ, f=1, A=1, d=-1, E=-1, a=1, b=0, B=2, c=1, C=0)
    assert asreg_decide(classify_3d(p)).decision and gorenstein_check(build_T(p), 8).clean
    t = classify_3d(ParamTuple3D.make(QQ, f=1, A=1, d=-1, E=-1, a=1, b=0, B=2, c=0, C=0))
    assert not asreg_decide(t).decision
    report(10, "regularity decisions match the Gorenstein evidence on all "
               "sample classes, with explicit zero-divisor and factorization witnesses")


def test_criterion_11_regraded_yoneda_not_koszul():
    for g in (0, 1):
        v = regraded_yoneda_koszul(QQ.scalar(g), 5)
        assert not v.koszul, f"g={g}"
        i, j = v.witness.data["i"], v.witness.data["j"]
        assert j > i >= 2
    report(11, "regraded degenerate Yoneda algebras at g = 0 and g = 1 are "
               "not Koszul (off-diagonal generator found)")
