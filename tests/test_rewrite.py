import random
import sys

import pytest

from helpers import (
    assert_poly_matches,
    expected_g1_coeffs,
    expected_g2_coeffs,
    make_params3d,
    reference_reduce,
)
from ttpkit.families import ParamTuple3D, build_T, build_Tgh
from ttpkit.freealg import Alphabet, NCPoly, parse_poly
from ttpkit.rewrite import (
    NotCompleted,
    RewriteSystem,
    Rule,
    degree3_overlap_elements,
    hilbert_oracle,
)
from ttpkit.scalars import QQ, PrimeField, QuadExtField, Scalar

SQRT2 = QuadExtField(QQ, 2)
XZ = Alphabet(["x", "z"])
YXZ = Alphabet(["y", "x", "z"])


def c_system(field, a, b, c=1):
    """Rewrite system of the two-generator family with z^2 coefficient c."""
    rel = NCPoly(XZ, field, {
        XZ.word("zx"): field.one(),
        XZ.word("x^2"): -field.scalar(a),
        XZ.word("xz"): -field.scalar(b),
        XZ.word("z^2"): -field.scalar(c),
    })
    return RewriteSystem.from_relations(XZ, field, [rel])


def t_system(params):
    """f = 1 normalized three-generator system built directly from rules."""
    field = params.field
    rel1 = parse_poly(YXZ, field, "xy - yx")
    rel2 = NCPoly(YXZ, field, {
        YXZ.word("z^2"): field.one(),
        YXZ.word("zx"): -field.one(),
        YXZ.word("x^2"): params.a,
        YXZ.word("yx"): params.b,
        YXZ.word("y^2"): params.c,
        YXZ.word("xz"): params.d,
        YXZ.word("yz"): params.e,
    })
    rel3 = NCPoly(YXZ, field, {
        YXZ.word("zy"): field.one(),
        YXZ.word("x^2"): -params.A,
        YXZ.word("yx"): -params.B,
        YXZ.word("y^2"): -params.C,
        YXZ.word("yz"): -params.E,
    })
    return RewriteSystem.from_relations(YXZ, field, [rel1, rel2, rel3])


def test_reduce_basic_examples():
    rs = c_system(QQ, 3, 5)
    z2 = parse_poly(XZ, QQ, "z^2")
    assert rs.reduce(z2) == parse_poly(XZ, QQ, "zx - 3x^2 - 5xz")
    p = make_params3d(QQ, f=1, a=2)
    rs3 = t_system(p)
    assert rs3.reduce(parse_poly(YXZ, QQ, "xy")) == parse_poly(YXZ, QQ, "yx")
    w = parse_poly(YXZ, QQ, "yx^2z")
    assert rs3.reduce(w) == w  # already normal


def test_reduce_idempotent_random():
    rng = random.Random(41)
    rs = t_system(make_params3d(PrimeField(7), f=1, a=2, b=3, d=1, A=1, B=5, E=2))
    words3 = [tuple(rng.randrange(3) for _ in range(rng.randint(1, 4))) for _ in range(40)]
    for w in words3:
        p = NCPoly(YXZ, rs.field, {w: 1})
        q = rs.reduce(p)
        assert rs.reduce(q) == q


def test_overlaps_of_t_system():
    rs = t_system(make_params3d(QQ, f=1, a=1, b=2, A=1))
    degree3 = [o for o in rs.overlaps() if YXZ.degree(o[2] + o[3] + o[4]) == 3]
    words = {YXZ.word_str(o[2] + o[3] + o[4]) for o in degree3}
    assert words == {"z^3", "z^2y"}


def test_single_rule_no_overlaps():
    rule = Rule(YXZ.word("xy"), parse_poly(YXZ, QQ, "yx"))
    rs = RewriteSystem(YXZ, QQ, [rule])
    assert rs.overlaps() == []


def test_completion_fibonacci_vs_generic():
    # a = 1, b = -1 resolves the degree-3 overlap for free: Fibonacci growth
    rs, added = c_system(QQ, 1, -1).complete(5)
    assert added == []
    assert rs.hilbert(5) == [1, 2, 3, 5, 8, 13]
    # generic parameters give the polynomial profile instead
    rs2, added2 = c_system(QQ, 2, 3).complete(6)
    assert len(added2) >= 1
    assert rs2.hilbert(6) == [1, 2, 3, 4, 5, 6, 7]


def test_completion_degree3_rule_matches_recurrence_coefficients():
    # the unique degree-3 rule of the generic two-generator family
    field = QQ
    a, b = field.scalar(2), field.scalar(3)
    rs, added = c_system(field, 2, 3).complete(3)
    rules3 = [r for r in added if r.degree() == 3]
    assert len(rules3) == 1
    g = rules3[0].element().scale(field.scalar(1) + b)  # e1 = 1 + b
    expected = NCPoly(XZ, field, {
        XZ.word("zxz"): field.one() + b,
        XZ.word("zx^2"): a - 1,
        XZ.word("x^2z"): b * b - a,
        XZ.word("x^3"): a * (b + 1),
    })
    assert g == expected


def test_elliptic_completion_matches_displayed_rule():
    # d = E = -1, A = 1, b = (1-a)(2-B): one degree-3 rule, nothing past it
    rng = random.Random(43)
    for _ in range(5):
        field = QQ
        a, B, c, C = (field.scalar(rng.randint(-5, 5)) for _ in range(4))
        beta = field.scalar(2) - B
        p = make_params3d(
            QQ, a=a, b=(field.one() - a) * beta, c=c, d=-1, e=0, f=1,
            A=1, B=B, C=C, D=0, E=-1, F=0,
        )
        rs, added = t_system(p).complete(4)
        assert len(added) == 1
        rule = added[0]
        assert YXZ.word_str(rule.high) == "zx^2"
        expected_tail = NCPoly(YXZ, field, {
            YXZ.word("x^2z"): field.one(),
            YXZ.word("yxz"): -beta,
            YXZ.word("x^3"): beta,
            YXZ.word("yx^2"): B * beta,
            YXZ.word("y^2x"): C * beta,
            YXZ.word("yzx"): -beta,
        })
        assert rule.tail == expected_tail
        assert rs.hilbert(4) == [1, 3, 6, 10, 15]
        # the new rule creates exactly the two expected degree-4 overlaps
        words4 = {
            YXZ.word_str(o[2] + o[3] + o[4])
            for o in rs.overlaps()
            if YXZ.degree(o[2] + o[3] + o[4]) == 4
        }
        assert {"z^2x^2", "zx^2y"} <= words4


def test_elliptic_normal_words_shape():
    p = make_params3d(QQ, a=1, b=0, c=1, d=-1, f=1, A=1, B=2, C=0, E=-1)
    rs, _ = t_system(p).complete(5)
    # basis words avoid xy, zy, z^2, zx^2: they are y^i x^j (zx)^k z^l, l <= 1
    for n, words in enumerate(rs.normal_words(5)):
        for w in words:
            s = "".join(YXZ.names[i] for i in w)
            assert "xy" not in s and "zy" not in s and "zz" not in s and "zxx" not in s


def test_normal_words_requires_completion():
    rs = c_system(QQ, 2, 3)
    with pytest.raises(NotCompleted):
        rs.normal_words(3)


def test_confluence_random_strategies_agree():
    rng = random.Random(47)
    p = make_params3d(PrimeField(101), a=7, b=9, c=11, d=13, f=1, A=1, B=17, C=19, E=23)
    rs, _ = t_system(p).complete(5)
    for _ in range(20):
        terms = {
            tuple(rng.randrange(3) for _ in range(rng.randint(1, 5))): rng.randint(1, 100)
            for _ in range(4)
        }
        q = NCPoly(YXZ, rs.field, terms)
        nf = rs.reduce(q)
        for _ in range(3):
            assert rs.reduce(q, rng=rng) == nf


def test_g1_g2_displayed_coefficients():
    rng = random.Random(53)
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


def test_g2_vanishes_in_the_one_sided_case():
    p = make_params3d(QQ, a=3, b=4, c=5, d=6, e=0, f=1, A=0, B=0, C=0, E=1)
    _, g2 = degree3_overlap_elements(p)
    assert g2.is_zero()


def test_g1_is_scalar_multiple_of_g2_for_elliptic_parameters():
    rng = random.Random(59)
    for _ in range(10):
        F = PrimeField(101)
        a, B, c, C = (F.scalar(rng.randrange(101)) for _ in range(4))
        p = make_params3d(
            F, a=a, b=(F.one() - a) * (F.scalar(2) - B), c=c, d=-1, e=0, f=1,
            A=1, B=B, C=C, E=-1,
        )
        g1, g2 = degree3_overlap_elements(p)
        assert not g2.is_zero()
        assert g1 == g2.scale(F.one() - a)


def test_dimension_trichotomy_at_degree_three():
    # dim T_3 = 11, 10, 9 as span{G1, G2} has dimension 0, 1, 2
    strata = [
        (make_params3d(QQ, a=1, b=0, c=4, d=-1, e=0, f=1, A=0, B=0, C=0, E=1), 0, 11),
        (make_params3d(QQ, a=2, b=0, c=0, d=3, e=0, f=1, A=0, B=0, C=0, E=1), 1, 10),
        (make_params3d(QQ, a=2, b=3, c=4, d=5, e=1, f=1, A=1, B=6, C=7, E=8), 2, 9),
    ]
    for p, span_dim, dim3 in strata:
        g1, g2 = degree3_overlap_elements(p)
        polys = [g for g in (g1, g2) if not g.is_zero()]
        if len(polys) == 2 and g1.monic() == g2.monic():
            polys = polys[:1]
        assert len(polys) == span_dim
        rs, _ = t_system(p).complete(3)
        assert rs.hilbert(3)[3] == dim3


def test_hilbert_oracle_free_and_commutative():
    field = QQ
    xy = Alphabet(["x", "y"])
    comm = parse_poly(xy, field, "xy - yx")
    assert hilbert_oracle([comm], 4) == [1, 2, 3, 4, 5]
    rs = RewriteSystem.from_relations(xy, field, [comm])
    rs, _ = rs.complete(4)
    assert rs.hilbert(4) == [1, 2, 3, 4, 5]
    # free algebra on two letters: no relations version via a never-matching rule
    free = RewriteSystem(xy, field, [], completed_to=3)
    assert free.hilbert(3) == [1, 2, 4, 8]


def test_hilbert_oracle_agrees_with_completion_on_c_family():
    rng = random.Random(61)
    F = PrimeField(101)
    for _ in range(20):
        a, b = rng.randrange(101), rng.randrange(101)
        rs, _ = c_system(F, a, b).complete(6)
        rel = NCPoly(XZ, F, {
            XZ.word("zx"): F.one(), XZ.word("x^2"): -F.scalar(a),
            XZ.word("xz"): -F.scalar(b), XZ.word("z^2"): -F.one(),
        })
        assert hilbert_oracle([rel], 6) == rs.hilbert(6)


def test_hilbert_oracle_elliptic_instance():
    field = QQ
    p = make_params3d(field, a=1, b=0, c=1, d=-1, f=1, A=1, B=2, C=0, E=-1)
    rels = [
        parse_poly(YXZ, field, "xy - yx"),
        parse_poly(YXZ, field, "z^2 - zx + x^2 + y^2 - xz"),  # b = 0 here
        parse_poly(YXZ, field, "zy - x^2 - 2yx + yz"),
    ]
    assert hilbert_oracle(rels, 4) == [1, 3, 6, 10, 15]


def test_hilbert_oracle_corpus_equivalence():
    # completion and the linear-algebra oracle agree across presentation shapes
    from ttpkit.families import ParamTuple2D, ParamTuple3D, build_C, build_T, build_Tgh

    F = PrimeField(101)
    corpus = [
        (build_C(ParamTuple2D.make(F, 7, 9, 1)), 6),
        (build_C(ParamTuple2D.make(QQ, 1, -1, 1)), 6),
        (build_T(ParamTuple3D.make(F, d=1, E=1, a=3, b=4, c=5, B=6)), 4),
        (build_T(ParamTuple3D.make(F, f=1, a=2, d=3, E=1)), 4),
        (build_Tgh(QQ.scalar(2), QQ.scalar(3)), 4),
        (build_Tgh(QQ.scalar(2), QQ.zero()), 4),
    ]
    for pres, d in corpus:
        assert hilbert_oracle(list(pres.relations), d) == pres.hilbert(d)


def test_left_right_multiplication_regular_on_elliptic():
    # graded left/right multiplication by each generator is injective
    from ttpkit.scalars import EchelonSpan

    p = make_params3d(QQ, a=2, b=-2, c=3, d=-1, f=1, A=1, B=0, C=5, E=-1)
    # b = (1-a)(2-B) = -2
    rs, _ = t_system(p).complete(7)
    words = rs.normal_words(7)
    for n in range(0, 6):
        index = {w: i for i, w in enumerate(words[n + 1])}
        for g in range(3):
            for side in ("left", "right"):
                span = EchelonSpan(rs.field)
                count = 0
                for w in words[n]:
                    gen = NCPoly(YXZ, rs.field, {(g,): rs.field.one()})
                    base = NCPoly(YXZ, rs.field, {w: rs.field.one()})
                    prod = rs.reduce(gen * base if side == "left" else base * gen)
                    count += span.insert({index[u]: cc.payload for u, cc in prod.terms.items()})
                assert count == len(words[n])


def overlap_system(params):
    """The three-rule system that degree3_overlap_elements rewrites with."""
    field = params.field
    one = field.one()

    def poly(spec):
        return NCPoly(YXZ, field, {YXZ.word(w): c for w, c in spec.items()})

    tail_z2 = poly({"zx": one, "x^2": -params.a, "yx": -params.b, "y^2": -params.c,
                    "xz": -params.d, "yz": -params.e})
    tail_zy = poly({"x^2": params.A, "yx": params.B, "y^2": params.C, "yz": params.E})
    rules = [
        Rule(YXZ.word("xy"), poly({"yx": one})),
        Rule(YXZ.word("z^2"), tail_z2),
        Rule(YXZ.word("zy"), tail_zy),
    ]
    return RewriteSystem(YXZ, field, rules)


def random_poly(rng, alphabet, field, maxlen):
    """A few terms of mixed length with small nonzero coefficients, some with sqrt(m) parts."""
    coeffs = [field.scalar(k) for k in (-3, -2, -1, 1, 2, 5)]
    if isinstance(field, QuadExtField):
        coeffs += [c * field.root() + 1 for c in coeffs]
    terms = {}
    for _ in range(rng.randint(1, 6)):
        w = tuple(rng.randrange(len(alphabet)) for _ in range(rng.randint(0, maxlen)))
        terms[w] = rng.choice(coeffs)
    return NCPoly(alphabet, field, terms)


def oracle_systems():
    """Completed, uncompleted and non-confluent rule sets over Q, GF(p) and Q(sqrt(2))."""
    rng = random.Random(59)
    out = []
    for field in (QQ, PrimeField(101), SQRT2):
        # elliptic (d = E = -1, A = 1, b = (1-a)(2-B)) and Ore (f = 0) tuples
        a, B = rng.randint(-5, 5), rng.randint(-5, 5)
        elliptic = ParamTuple3D.make(field, a=a, b=(1 - a) * (2 - B), c=rng.randint(-5, 5), d=-1,
                                     f=1, A=1, B=B, C=rng.randint(-5, 5), E=-1)
        ore = ParamTuple3D.make(field, a=3, b=2, d=-2, B=1, C=1, E=-1)
        out.append(build_T(elliptic).completed(6))
        out.append(build_T(ore).completed(6))
        out.append(build_Tgh(field.scalar(rng.randint(-9, 9)), field.scalar(rng.randint(1, 9))).completed(6))
        generic = make_params3d(field, **{k: rng.randint(1, 9) for k in "abcdeABCE"}, f=1)
        out.append(overlap_system(generic))
        out.append(t_system(generic))
        out.append(c_system(field, 2, 3))
    root = SQRT2.root()
    out.append(build_Tgh(root + 1, root).completed(6))
    out.append(c_system(SQRT2, root, 1 - root))
    return out


def test_reduce_matches_direct_rewriting_oracle():
    rng = random.Random(61)
    for rs in oracle_systems():
        for _ in range(25):
            p = random_poly(rng, rs.alphabet, rs.field, 6)
            got = rs.reduce(p)
            assert got == reference_reduce(p, rs.rules), (rs.rules, p)
            assert all(isinstance(c, Scalar) and c.field == rs.field for c in got.terms.values())


def test_completed_system_does_not_inherit_parent_table():
    p = make_params3d(PrimeField(101), a=7, b=9, c=11, d=13, e=3, f=1, A=1, B=17, C=19, E=23)
    rs = t_system(p)
    w = parse_poly(YXZ, rs.field, "z^3")  # the self-overlap word of z^2
    before = rs.reduce(w)
    rs2, added = rs.complete(4)
    assert added
    after = rs2.reduce(w)
    assert after == reference_reduce(w, rs2.rules)
    assert after != before
    highs = [r.high for r in rs2.rules]
    assert not any(
        u[i : i + len(h)] == h for u in after.terms for h in highs for i in range(len(u))
    )
    assert rs.reduce(w) == before == reference_reduce(w, rs.rules)


def test_fresh_systems_never_share_normal_forms():
    rng = random.Random(67)
    F = PrimeField(101)
    q = parse_poly(YXZ, F, "z^2y + 2zxz - zyx + z^3")
    for _ in range(200):
        rs = t_system(make_params3d(F, **{k: rng.randrange(101) for k in "abcdeABCE"}, f=1))
        assert rs.reduce(q) == reference_reduce(q, rs.rules)
        del rs


def test_long_rewrite_chain_needs_no_recursion():
    F = PrimeField(32003)
    ore = ParamTuple3D.make(F, a=F.scalar("3/2"), b=F.scalar("3/2"), d=-2, B=1, C=1, E=-1)
    rs = build_T(ore).completed(12)
    w = parse_poly(YXZ, F, "z^4x^8")  # its leftmost rewrite chain is 66 steps deep
    frames, f = 0, sys._getframe()
    while f is not None:
        frames, f = frames + 1, f.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frames + 40)
    try:
        got = rs.reduce(w)
    finally:
        sys.setrecursionlimit(limit)
    assert got == reference_reduce(w, rs.rules)


def test_normal_words_prefix_matches_fresh_computation():
    p = make_params3d(QQ, a=2, b=-2, c=3, d=-1, f=1, A=1, B=0, C=5, E=-1)
    rs, _ = t_system(p).complete(7)
    assert len(rs.normal_words(7)) == 8
    fresh = RewriteSystem(rs.alphabet, rs.field, rs.rules, rs.completed_to)
    assert rs.normal_words(4) == fresh.normal_words(4)
    assert rs.normal_words(7)[:5] == fresh.normal_words(4)
