import hashlib
import itertools
import random
import sys
from fractions import Fraction

import pytest

from helpers import (
    YXZ,
    assert_payload_terms,
    assert_poly_matches,
    expected_g1_coeffs,
    expected_g2_coeffs,
    from_relations,
    hilbert_oracle,
    is_irreducible,
    make_params3d,
    overlap_system,
    random_reduce,
    reference_reduce,
    reference_t_space,
    rewrite_degree3_overlap_elements,
)
from ttpkit import rewrite
from ttpkit.families import ParamTuple3D, Presentation, build_T, build_Tgh
from ttpkit.freealg import Alphabet, NCPoly, parse_poly
from ttpkit.homology import minimal_resolution
from ttpkit.koszulreg import yoneda_presentation_h0
from ttpkit.rewrite import (
    NotCompleted,
    RewriteSystem,
    Rule,
    _complete,
    _LetterMap,
    _overlaps,
    degree3_overlap_elements,
)
from ttpkit.scalars import QQ, PrimeField, QuadExtField

SQRT2 = QuadExtField(QQ, 2)
XZ = Alphabet(["x", "z"])


def c_system(field, a, b, c=1):
    """Rewrite system of the two-generator family with z^2 coefficient c."""
    rel = NCPoly(XZ, field, {
        XZ.word("zx"): field.one(),
        XZ.word("x^2"): -field.scalar(a),
        XZ.word("xz"): -field.scalar(b),
        XZ.word("z^2"): -field.scalar(c),
    })
    return from_relations(XZ, field, [rel])


def overlap_words(rs, degree):
    """The words hi+mpp of the given degree where one rule's high term hi overlaps another's."""
    return {
        YXZ.word_str(ri.high + mpp)
        for ri in rs.rules
        for rj in rs.rules
        for _, _, mpp in _overlaps(ri.high, rj.high)
        if YXZ.degree(ri.high + mpp) == degree
    }


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
    return from_relations(YXZ, field, [rel1, rel2, rel3])


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
    assert overlap_words(rs, 3) == {"z^3", "z^2y"}


def test_single_rule_no_overlaps():
    rule = Rule(YXZ.word("xy"), parse_poly(YXZ, QQ, "yx"))
    rs = RewriteSystem(YXZ, QQ, [rule])
    assert all(not list(_overlaps(ri.high, rj.high)) for ri in rs.rules for rj in rs.rules)


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
        assert {"z^2x^2", "zx^2y"} <= overlap_words(rs, 4)


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
            assert random_reduce(q, rs.rules, rng) == nf


def assert_obstructions_agree(p):
    """Closed form, rewriting oracle and frozen expansions agree term for term."""
    g1, g2 = degree3_overlap_elements(p)
    r1, r2 = rewrite_degree3_overlap_elements(p)
    assert g1.alphabet == g2.alphabet == YXZ
    assert (g1.terms, g2.terms) == (r1.terms, r2.terms), p
    assert g1.field == g2.field == p.field
    assert_payload_terms(g1)
    assert_payload_terms(g2)
    assert_poly_matches(g1, expected_g1_coeffs(p))
    assert_poly_matches(g2, expected_g2_coeffs(p))


def test_g1_g2_displayed_coefficients():
    rng = random.Random(53)
    root = SQRT2.root()
    draws = {
        QQ: lambda: QQ.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4))),
        PrimeField(2): lambda: PrimeField(2).scalar(rng.randrange(2)),
        PrimeField(101): lambda: PrimeField(101).scalar(rng.randrange(101)),
        PrimeField(32003): lambda: PrimeField(32003).scalar(rng.randrange(32003)),
        SQRT2: lambda: SQRT2.scalar(rng.randint(-5, 5)) + root * rng.randint(-5, 5),
    }
    for field, draw in draws.items():
        for _ in range(40):
            assert_obstructions_agree(make_params3d(field, f=1, **{k: draw() for k in "abcdeABCE"}))
    # all zero: the obstructions of the commutative polynomial ring
    assert_obstructions_agree(make_params3d(QQ, f=1))


def test_closed_form_obstructions_on_gf3_census_slices():
    F = PrimeField(3)
    for ranges in ({"e": [1], "d": [2]}, {"e": [0], "A": [1], "a": [1]}):
        space = list(reference_t_space(3, ranges))
        assert len(space) == 3**6
        for values in space:
            assert_obstructions_agree(ParamTuple3D.make(F, **values))


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
    rs = from_relations(xy, field, [comm])
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
                    count += span.insert({index[u]: c for u, c in prod.terms.items()})
                assert count == len(words[n])


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
    # complete through the degree, the normal form is unique and the
    # leftmost-redex oracle reaches it; elsewhere reduce returns an
    # irreducible polynomial congruent to the oracle's, tested by the
    # normal forms of both in the system completed to degree 6
    rng = random.Random(61)
    for rs in oracle_systems():
        full = rs.complete(6)[0]
        for _ in range(25):
            p = random_poly(rng, rs.alphabet, rs.field, 6)
            got, want = rs.reduce(p), reference_reduce(p, rs.rules)
            if rs.completed_to is not None:
                assert got == want, (rs.rules, p)
            else:
                assert is_irreducible(got, rs.rules), (rs.rules, p)
                assert full.reduce(got) == full.reduce(want), (rs.rules, p)
            assert got.field == rs.field
            assert_payload_terms(got)


def test_multiplication_maps_match_rewriting_oracles_on_complete_systems():
    # normal word times polynomial: the multiplication map folds the
    # polynomial's letters onto the word from its first letter on
    rng = random.Random(71)
    for rs in oracle_systems():
        if rs.completed_to is None:
            continue
        words = [w for bucket in rs.normal_words(4) for w in bucket]
        for _ in range(12):
            v = rng.choice(words)
            p = random_poly(rng, rs.alphabet, rs.field, 6 - len(v))
            word = NCPoly.from_payloads(rs.alphabet, rs.field, {v: rs.field.one().payload})
            prod = word * p
            got = NCPoly.from_payloads(rs.alphabet, rs.field, rs.multiply(v, p))
            assert got == reference_reduce(prod, rs.rules), (rs.rules, v, p)
            assert got == random_reduce(prod, rs.rules, rng), (rs.rules, v, p)
            assert_payload_terms(got)


def test_multiply_on_filled_maps_drives_no_suspended_computation(monkeypatch):
    # a fold looks each entry up first and suspends only to fill a missing
    # one, so repeating a product on filled maps drives no generator
    runs = []
    run = _LetterMap._run
    monkeypatch.setattr(_LetterMap, "_run", lambda self, steps: runs.append(steps) or run(self, steps))
    F = PrimeField(32003)
    ore = ParamTuple3D.make(F, a=F.scalar("3/2"), b=F.scalar("3/2"), d=-2, B=1, C=1, E=-1)
    rs = build_T(ore).completed(8)
    p = parse_poly(YXZ, F, "2z^2x + zxy - 3yzx + x^2y + 5z^3")
    for v in rs.normal_words(3)[3]:
        runs.clear()
        first = rs.multiply(v, p)
        filled = len(runs)
        assert rs.multiply(v, p) == first
        assert len(runs) == filled, v
    assert filled > 0  # the first product of the last word still filled entries


def test_completion_keeps_one_map_across_births(monkeypatch):
    # one letter map serves a whole completion: a rule born of degree D
    # drops only the entries of degree D and up, and every entry kept below
    # D is what a fresh map on the rules born so far computes
    A = Alphabet(["x", "y", "z"])
    rs = from_relations(A, QQ, [parse_poly(A, QQ, r) for r in ("xy-2yx+zz", "yz-zy", "xz-3zx+yy")])
    built, born, differences = [], [], []
    init, birth, s_difference = _LetterMap.__init__, _LetterMap.birth, rewrite._s_difference

    def spy_init(self, rules, field):
        built.append(self)
        init(self, rules, field)

    def spy_birth(self, rule, since):
        before = dict(self.entries)
        birth(self, rule, since)
        born.append(rule)
        D = A.degree(rule.high)
        assert self.entries == {(v, x): nf for (v, x), nf in before.items() if A.degree(v + (x,)) < D}
        fresh = _LetterMap.__new__(_LetterMap)  # built past the spy: the test's own map
        init(fresh, born, QQ)
        assert all(fresh.entry(v, x) == nf for (v, x), nf in self.entries.items()), rule

    monkeypatch.setattr(_LetterMap, "__init__", spy_init)
    monkeypatch.setattr(_LetterMap, "birth", spy_birth)
    monkeypatch.setattr(rewrite, "_s_difference", lambda *args: differences.append(args) or s_difference(*args))
    done, added = rs.complete(6)
    # the loop's map is the completed system's: one map per completion
    assert len(built) == 1 and done._right is built[0]
    # the three own rules are born again, then 13 added from the 64 overlaps of degree <= 6
    assert len(born) == 3 + 13 and [r.high for r in born[3:]] == [r.high for r in added]
    assert len(added) == 13 and len(differences) == 64


def _inherited_entries_match_fresh(alphabet, field, relations, d):
    """Complete relations through d; check the completed map's entries against a fresh system's, filled by multiply."""
    rs = _complete(alphabet, field, relations, d)[0]
    inherited = dict(rs._right.entries)
    fresh = RewriteSystem(alphabet, field, rs.rules, d)
    for v, x in inherited:
        assert alphabet.degree(v + (x,)) <= d
        letter = NCPoly.from_payloads(alphabet, field, {(x,): field.one().payload})
        assert fresh.multiply(v, letter) == inherited[v, x], (v, x)
        assert rs.multiply(v, letter) == inherited[v, x], (v, x)
    assert {k: fresh._right.entries[k] for k in inherited} == inherited
    assert rs._right.entries == inherited  # the lookups filled nothing new
    return inherited


def _random_presentation(rng, alphabet, field, coefficients):
    """Two or three relations of degree 2 or 3 with two or three words each."""
    k = rng.choice((2, 3))
    words = list(itertools.product(range(len(alphabet)), repeat=k))
    return [
        NCPoly(alphabet, field, {w: rng.choice(coefficients) for w in rng.sample(words, rng.randint(2, 3))})
        for _ in range(rng.randint(2, 3))
    ]


@pytest.mark.parametrize("field", [QQ, PrimeField(32003), SQRT2], ids=repr)
def test_completed_system_inherits_fresh_entries(field):
    rng = random.Random(97)
    coefficients = [field.scalar(c) for c in (1, -1, 2, -3, Fraction(1, 2))]
    if field is SQRT2:
        coefficients += [SQRT2.root(), SQRT2.scalar(1) - SQRT2.root()]
    filled = 0
    for _ in range(12):
        alphabet = Alphabet(["x", "y", "z"][: rng.choice((2, 3))])
        relations = _random_presentation(rng, alphabet, field, coefficients)
        filled += len(_inherited_entries_match_fresh(alphabet, field, relations, 5))
        # orientation alone certifies nothing, so nothing is handed over
        assert from_relations(alphabet, field, relations)._right.entries == {}
    assert filled


def test_weighted_and_zero_algebra_completions_inherit_fresh_entries():
    # the degenerate Yoneda presentation has rho of weight 3
    pres = yoneda_presentation_h0(QQ.scalar(2))
    assert _inherited_entries_match_fresh(pres.alphabet, QQ, pres.relations, 8)
    assert any(3 in v for v, _ in pres.completed(8)._right.entries)
    xy = Alphabet(["x", "y"])
    # a relation above d fills entries past d while it is reduced; none is handed over
    relations = [parse_poly(xy, QQ, r) for r in ("xy - yx", "x^5 + 2y^5")]
    assert _inherited_entries_match_fresh(xy, QQ, relations, 3)
    # under the rule 1 -> 0 every word is zero: no entry outlives it
    relations = [parse_poly(xy, QQ, r) for r in ("xy - yx", "2")]
    assert _inherited_entries_match_fresh(xy, QQ, relations, 4) == {}


def test_multiplication_maps_hold_normal_word_times_letter_only():
    # an entry is keyed by a normal word and a letter: a resolution to
    # degree 16 fills at most letters x sum_{n<16} dim A_n entries, and
    # memoizing any intermediate word breaks the bound
    pres = build_Tgh(QQ.scalar(1), QQ.scalar(2))
    minimal_resolution(pres, 6, 16)
    rs = pres.completed(16)
    normal = [w for bucket in rs.normal_words(15) for w in bucket]
    maps = rs._right
    assert 0 < len(maps.entries) <= len(rs.alphabet) * len(normal)
    assert set(v for v, _ in maps.entries) <= set(normal)


def test_constant_rule_reduces_the_empty_word():
    # k<x,y>/(2): the rule 1 -> 0 puts every element, 1 included, in the ideal
    xy = Alphabet(["x", "y"])
    rs = from_relations(xy, QQ, [parse_poly(xy, QQ, "2")])
    assert [r.high for r in rs.rules] == [()]
    for text in ("1", "3 + x", "x - 2y^2x"):
        p = parse_poly(xy, QQ, text)
        assert rs.reduce(p).is_zero(), text
        assert reference_reduce(p, rs.rules).is_zero(), text
    rng = random.Random(73)
    assert random_reduce(NCPoly.one(xy, QQ), rs.rules, rng).is_zero()


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
    assert is_irreducible(after, rs2.rules)
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


def random_relations(rng, alphabet, field, degrees):
    """One relation per entry of degrees: one to three words of that degree, nonzero coefficients."""
    p = field.characteristic()
    out = []
    for k in degrees:
        words = list(itertools.product(range(len(alphabet)), repeat=k))
        picked = rng.sample(words, rng.randint(1, 3))
        out.append(NCPoly(alphabet, field, {w: field.scalar(rng.randrange(1, p)) for w in picked}))
    return out


# SHA-256 of repr(rules) and repr(added) of from_relations(...).complete(d)
# over 320 seeded random presentations whose relations share one degree,
# recorded from a completion that oriented all relations before resolving
# any overlap: on such input the degree-ordered queue must not change a
# rule or its place
SAME_DEGREE_COMPLETION_SHA256 = "d91833b269ce87141137c050513d797a2b8a028d62a165910ace12894efed38b"


def test_same_degree_completion_is_pinned():
    rng = random.Random(89)
    parts = []
    for _ in range(320):
        alphabet = Alphabet(["x", "y", "z"][: rng.choice((2, 3))])
        field = PrimeField(rng.choice((3, 5)))
        k = rng.choice((2, 3))
        rels = random_relations(rng, alphabet, field, [k] * rng.randint(1, 3))
        d = {2: 6, 3: 7}[k] if len(alphabet) == 2 else {2: 5, 3: 6}[k]
        rs, added = from_relations(alphabet, field, rels).complete(d)
        parts.append(f"{rs.rules!r}\n{added!r}")
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    assert digest == SAME_DEGREE_COMPLETION_SHA256


# Presentations over x < y whose relations differ in degree, each with a
# relation whose high term contains one that completion adds below it:
# orienting the relations before resolving any overlap left yx^3 beside
# the later yx^2, a system that is not interreduced
MIXED_DEGREE = [
    (QQ, "y^2+x^2; yx^3"),
    (PrimeField(3), "y^2+2yx+xy; y^4+2xyxy"),
    (PrimeField(3), "2y^2+yx+x^2; y^4+2y^3x+2yxyx"),
    (PrimeField(3), "y^2+2xy; 2y^2xy+xy^2x+2x^2y^2"),
]


@pytest.mark.parametrize("field, relations", MIXED_DEGREE, ids=[r for _, r in MIXED_DEGREE])
def test_mixed_degree_presentations_complete(field, relations):
    xy = Alphabet(["x", "y"])
    rels = [parse_poly(xy, field, r) for r in relations.split(";")]
    want = hilbert_oracle(rels, 7)
    assert Presentation(xy, field, rels).hilbert(7) == want
    rs, _ = from_relations(xy, field, rels).complete(7)
    assert rs.hilbert(7) == want


def test_relations_precede_overlaps_of_their_degree():
    # the self-overlap y^3 of y^2 -> x^2 resolves to yx^2 - x^2y, also a
    # relation: taken first, the relation is oriented and the overlap
    # reduces to zero, so no rule counts as added
    xy = Alphabet(["x", "y"])
    rels = [parse_poly(xy, QQ, r) for r in ("y^2 - x^2", "yx^2 - x^2y")]
    rs, added = _complete(xy, QQ, rels, 3)
    assert [repr(r) for r in rs.rules] == ["y^2 -> x^2", "yx^2 -> x^2y"]
    assert added == []
