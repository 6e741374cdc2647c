import random
from fractions import Fraction
from itertools import product

import pytest
from helpers import (
    YXZ,
    _reference_c_matrix,
    NotCanonical,
    decision_3d,
    ideal_membership,
    inverse_steps,
    make_params3d,
    map_coeffs,
    reference_classify_3d,
    reference_dependence_relation,
    reference_iso_type_2d,
    reference_t_space,
    relation_phi_matrix,
    rigidity_check_2d,
    substitute,
)

from ttpkit.classify import (
    CongruenceData,
    IsoType2D,
    SingularN,
    TTPType3D,
    canonical_2d,
    classify_2d_ttp,
    classify_3d,
    congruence_verify,
    graded_iso_type_2d,
    jordan_normal_form_3d,
    ore_case_id,
    reducible_system_residuals,
    skew_matrix,
)
from ttpkit.families import (
    ParamTuple2D,
    ParamTuple3D,
    apply_basis_change,
    build_C,
    build_T,
)
from ttpkit.freealg import NCPoly, parse_poly
from ttpkit.rewrite import degree3_overlap_elements, second_obstruction_vanishes
from ttpkit.scalars import QQ, FieldError, NestedExtension, PrimeField, QuadExtField, ScalarMatrix


def C2(a, b, c, field=QQ):
    return ParamTuple2D.make(field, a, b, c)


def T3(field=QQ, **kw):
    return ParamTuple3D.make(field, **kw)


# ---------------------------------------------------------------------------
# two-generator predicate
# ---------------------------------------------------------------------------


def test_one_sided_always_ttp():
    assert classify_2d_ttp(C2(5, 7, 0)).is_ttp
    assert classify_2d_ttp(C2(0, 7, 3)).is_ttp
    assert classify_2d_ttp(C2(1, -1, 0)).is_ttp  # c = 0 saves a = 1


def test_fibonacci_witness():
    v = classify_2d_ttp(C2(1, -1, 1))
    assert not v.is_ttp
    assert v.witness.kind == "hilbert_mismatch"
    assert v.witness.data["dims"] == (1, 2, 3, 5, 8)


def test_not_ttp_at_n2_with_dependence_witness():
    v = classify_2d_ttp(C2(Fraction(1, 2), 0, 1))
    assert not v.is_ttp
    assert v.witness.data["n"] == 2
    rel = v.witness.data["relation"]
    # the witness relation really lies in the rescaled ideal
    from ttpkit.families import build_C

    pres = build_C(canonical_2d(C2(Fraction(1, 2), 0, 1)))
    assert ideal_membership(rel, pres, rel.degree())


def test_dependence_witness_at_n1():
    v = classify_2d_ttp(C2(1, 5, 1))
    assert not v.is_ttp and v.witness.data["n"] == 1


@pytest.mark.parametrize("p", [13, 101])
def test_dependence_witness_over_prime_fields(p):
    # seeded not_ttp tuples whose first zero is past n = 1: the relation built
    # on payloads lies in the ideal of the canonical class and equals the one
    # spelled out with efgh and Alphabet.word
    field, rng = PrimeField(p), random.Random(p)
    ns = []
    while len(ns) < 6:
        params = C2(rng.randrange(1, p), rng.randrange(p), rng.randrange(1, p), field)
        v = classify_2d_ttp(params)
        if v.is_ttp or v.witness.data["n"] < 2:
            continue
        n, rel = v.witness.data["n"], v.witness.data["relation"]
        t = params.a * params.c
        assert v.witness.kind == "dependence_relation"
        assert rel == reference_dependence_relation(t, params.b, n), params
        assert rel.degree() == n + 2
        assert ideal_membership(rel, build_C(ParamTuple2D(t, params.b, field.one())), n + 2), params
        ns.append(n)
    assert max(ns) >= 5, ns


def test_finite_field_certificates_close_cycles():
    F = PrimeField(3)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                v = classify_2d_ttp(C2(a, b, c, F))
                assert v.certified_to is None  # always conclusive over GF(3)


# ---------------------------------------------------------------------------
# two-generator isomorphism types
# ---------------------------------------------------------------------------


def test_congruence_verify_random():
    rng = random.Random(103)
    for _ in range(20):
        m = ScalarMatrix(QQ, [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)])
        n = ScalarMatrix(QQ, [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)])
        if n.det().is_zero():
            continue
        target = n.transpose() * m * n
        assert congruence_verify(CongruenceData(m, n, target))
    with pytest.raises(SingularN):
        congruence_verify(CongruenceData(m, ScalarMatrix.zero(QQ, 2, 2), m))


def test_phi_matrix_of_family_relation():
    from ttpkit.families import build_C

    pres = build_C(C2(3, 5, 1))
    assert relation_phi_matrix(pres.relations[0]) == _reference_c_matrix(QQ.scalar(3), QQ.scalar(5))


def test_iso_type_c0_cases():
    t = graded_iso_type_2d(classify_2d_ttp(C2(1, 1, 0)))
    assert t.kind == "jordan"
    t = graded_iso_type_2d(classify_2d_ttp(C2(1, 3, 0)))
    assert t.kind == "skew" and t.q == QQ.scalar(3)
    t = graded_iso_type_2d(classify_2d_ttp(C2(0, 3, 0)))
    assert t.kind == "skew" and t.q == QQ.scalar(3)
    t = graded_iso_type_2d(classify_2d_ttp(C2(1, 0, 0)))
    assert t.kind == "zx_zero" and t.q.is_zero()
    t = graded_iso_type_2d(classify_2d_ttp(C2(0, 0, 0)))
    assert t.kind == "zx_zero"


def test_iso_type_c0_substitution_witness_is_an_isomorphism():
    # x -> (1-b)x, z -> x + z carries the c = 0 relation into the skew ideal
    from ttpkit.freealg import Alphabet

    b = QQ.scalar(3)
    A2 = Alphabet(["x", "z"])
    x, z = NCPoly.letter(A2, QQ, "x"), NCPoly.letter(A2, QQ, "z")
    rel = parse_poly(A2, QQ, "zx - x^2 - 3xz")
    image = substitute(rel, {"x": x.scale(QQ.one() - b), "z": x + z})
    skew_rel = parse_poly(A2, QQ, "zx - 3xz")
    # image = (1-b) * skew relation
    assert image == skew_rel.scale(QQ.one() - b)


def test_iso_type_skew_minus_one_adjoining_root():
    rng = random.Random(107)
    for _ in range(10):
        a = QQ.scalar(rng.randint(2, 40))  # 1 - a negative: extension needed
        v = classify_2d_ttp(C2(a.payload, -1, 1))
        if not v.is_ttp:
            continue
        t = graded_iso_type_2d(v)
        assert t.kind == "skew" and str(t.q) == "-1"
        cd = t.witness
        assert congruence_verify(cd)
        # determinant of the witness equals the adjoined square root
        ext = cd.n.field
        r = ext.sqrt(ext.embed(QQ.one() - a)) if isinstance(ext, QuadExtField) else ext.sqrt(QQ.one() - a)
        assert cd.n.det() in (r, -r)


def test_iso_type_jordan_branch():
    # 4a = (b-1)^2 with a = 1/4, b = 0
    p = C2(Fraction(1, 4), 0, 1)
    assert classify_2d_ttp(p).is_ttp
    t = graded_iso_type_2d(classify_2d_ttp(p))
    assert t.kind == "jordan"
    cd = t.witness
    # N = [[1+s, 0], [s, 1]] with s = (b-1)/2 = -1/2
    assert cd.n[0, 0] == QQ.scalar(Fraction(1, 2))
    assert cd.n[1, 0] == QQ.scalar(Fraction(-1, 2))
    assert congruence_verify(cd)


def test_iso_type_generic_skew_and_det_formula():
    rng = random.Random(109)
    seen_ext = False
    for _ in range(25):
        a, b = rng.randint(-6, 6), rng.randint(-6, 6)
        p = C2(a, b, 1)
        if not classify_2d_ttp(p).is_ttp:
            continue
        aa, bb = QQ.scalar(a), QQ.scalar(b)
        if bb == QQ.scalar(-1) or (4 * aa - (bb - 1) * (bb - 1)).is_zero():
            continue
        t = graded_iso_type_2d(classify_2d_ttp(p))
        assert t.kind in ("skew", "zx_zero")
        cd = t.witness
        assert congruence_verify(cd)
        F2 = cd.n.field
        seen_ext = seen_ext or isinstance(F2, QuadExtField)
        q = t.q if t.q.field == F2 else F2.embed(t.q)
        bb2 = bb if bb.field == F2 else F2.embed(bb)
        if len(t.roots) == 2:
            # det N = (1+b)/(1+q); the two roots multiply to 1
            assert cd.n.det() == (F2.one() + bb2) / (F2.one() + q)
            prod = t.roots[0] * t.roots[1]
            assert prod == F2.one() if prod.field == F2 else prod == QQ.one()
    assert seen_ext  # at least one sample needed an extension


def test_skew_canonical_representative_is_inversion_stable():
    # q and 1/q label the same plane; the canonical pick must agree
    p = C2(2, 1, 1)  # q^2 * 3 + (4 - 1 - 1) q + 3 -> roots q, 1/q
    t = graded_iso_type_2d(classify_2d_ttp(p))
    if len(t.roots) == 2:
        q1, q2 = t.roots
        assert q1 * q2 == t.q.field.one()
        assert t.q == min(t.roots, key=lambda r: r.sort_key())


def _iso_outcome(iso_type, v):
    """iso_type(v), or the type and message of the field error it raises."""
    try:
        return iso_type(v)
    except FieldError as exc:
        return type(exc), str(exc)


def _branch(iso):
    """Which branch of the isomorphism type made iso: its kind, witness shape and witness field."""
    if not isinstance(iso, IsoType2D):
        return iso[0].__name__
    w = iso.witness
    if not isinstance(w, CongruenceData):
        return iso.kind, "substitution"
    return iso.kind, str(iso.q), "in field" if w.n.field == iso.canonical.field else "extended"


def assert_same_iso_type(got, want):
    """Equal kind, q, roots, canonical tuple and witness, each witness matrix entry for entry."""
    if not isinstance(want, IsoType2D):
        assert got == want
        return
    assert (got.kind, got.q, got.roots, got.canonical) == (want.kind, want.q, want.roots, want.canonical)
    if not isinstance(want.witness, CongruenceData):
        assert got.witness == want.witness
        return
    for name in ("m", "n", "target"):
        g, w = getattr(got.witness, name), getattr(want.witness, name)
        assert (g.field, g.nrows, g.ncols) == (w.field, w.nrows, w.ncols), name
        entries = [[(i, j) for j in range(w.ncols)] for i in range(w.nrows)]
        assert [[g[ij] for ij in row] for row in entries] == [[w[ij] for ij in row] for row in entries], name


def check_iso_against_reference(params, bound=50):
    """The branch that decided params, after checking it against the Scalar reference; None if not a TTP."""
    v = classify_2d_ttp(params, bound)
    if not v.is_ttp:
        return None
    got = _iso_outcome(graded_iso_type_2d, v)
    assert_same_iso_type(got, _iso_outcome(reference_iso_type_2d, v))
    return _branch(got)


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_iso_type_matches_the_scalar_reference_on_full_cubes(p):
    field = PrimeField(p)
    branches = {check_iso_against_reference(C2(a, b, c, field)) for a, b, c in product(range(p), repeat=3)}
    if p == 13:
        # the Jordan, q = -1 and generic branches, each in GF(13) and (but Jordan) in GF(13^2)
        expected = {
            ("jordan", "None", "in field"),
            ("skew", "12", "in field"),
            ("skew", "12", "extended"),
            ("zx_zero", "0", "in field"),
        }
        assert expected <= branches
        generic = {b[2] for b in branches if isinstance(b, tuple) and len(b) == 3 and b[1] not in ("None", "0", "12")}
        assert generic == {"in field", "extended"}
        assert {("jordan", "substitution"), ("skew", "substitution"), ("zx_zero", "substitution")} <= branches


def test_iso_type_matches_the_scalar_reference_over_q_and_q_sqrt2():
    rng = random.Random(113)
    sqrt2 = QuadExtField(QQ, 2)

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    def in_sqrt2():
        return sqrt2.scalar(rational()) + sqrt2.scalar(rational()) * sqrt2.root()

    q_tuples = [(Fraction(1, 4), 0, 1), (3, -1, 1), (-3, -1, 1), (2, 3, 1), (1, 3, 0), (1, 1, 0), (0, 5, 0)]
    q_tuples += [(rational(), rational(), rng.choice([0, 1, rational()])) for _ in range(40)]
    branches = {check_iso_against_reference(C2(a, b, c)) for a, b, c in q_tuples}
    assert {("jordan", "None", "in field"), ("skew", "-1", "extended"), ("skew", "-1", "in field")} <= branches
    assert any(b[1:] != ("-1", "extended") and b[2] == "extended" for b in branches if isinstance(b, tuple) and len(b) == 3)
    # over Q(sqrt(2)), a square root outside it needs a second extension, on both sides
    ext_tuples = [(Fraction(1, 4), 0, 1), (-1, -1, 1), (2, -1, 1)]
    ext_tuples += [(in_sqrt2(), in_sqrt2(), rng.choice([0, 1, in_sqrt2()])) for _ in range(25)]
    branches = {check_iso_against_reference(C2(a, b, c, sqrt2), bound=20) for a, b, c in ext_tuples}
    assert {"NestedExtension", ("jordan", "None", "in field"), ("skew", "-1", "in field")} <= branches


def test_rigidity():
    assert rigidity_check_2d(C2(2, 3, 1), C2(2, 3, 1))
    assert not rigidity_check_2d(C2(1, 2, 0), C2(1, 3, 0))
    assert not rigidity_check_2d(C2(2, 3, 1), C2(2, 4, 1))
    with pytest.raises(NotCanonical):
        rigidity_check_2d(C2(2, 3, 5), C2(2, 3, 5))


# ---------------------------------------------------------------------------
# three-generator normalization
# ---------------------------------------------------------------------------


def test_jnf_already_normalized_is_identity():
    F = PrimeField(32003)
    for p in [
        T3(a=2, b=3, d=1, e=0, f=1, A=1, B=4, E=-1),
        T3(F, f=1, e=1, d=2, E=2),  # e = 1 already
        T3(F, d=3, E=5, B=2, C=1, a=1, b=1),  # diagonal, eigenvalues already in order
        T3(F, d=3, e=1, E=3),  # a Jordan block already
    ]:
        r = jordan_normal_form_3d(p)
        assert r.normalized and r.params == p and r.trace == (), (p, r.trace)


def test_jnf_kills_F():
    p = T3(a=1, b=2, c=3, d=4, e=5, f=6, A=7, B=8, C=9, D=0, E=10, F=11)
    r = jordan_normal_form_3d(p)
    assert r.params.F.is_zero()
    assert r.params.f == QQ.one() or r.params.f.is_zero()
    kinds = [s.kind for s in r.trace]
    assert "swap_xy" in kinds and "rescale_z" in kinds


def test_jnf_rotation_matrix_needs_gaussian_integers():
    p = T3(d=0, e=1, D=-1, E=0)  # rotation: eigenvalues +/- i
    r = jordan_normal_form_3d(p)
    assert r.normalized
    F2 = r.params.field
    assert isinstance(F2, QuadExtField) and F2.m == QQ.scalar(-1)
    assert r.params.e.is_zero() and r.params.D.is_zero()
    assert {str(r.params.d), str(r.params.E)} == {"sqrt(-1)", "-sqrt(-1)"}


def test_jnf_nilpotent_block():
    p = T3(d=0, e=0, D=1, E=0)  # lower-triangular nilpotent
    r = jordan_normal_form_3d(p)
    assert r.normalized
    q = r.params
    assert q.D.is_zero() and q.e == QQ.one() and q.d == q.E == QQ.zero()


def _aligned_random_tuple(rng, F):
    """Random tuple satisfying the alignment condition, hence normalizable."""
    kw = {k: rng.randrange(101) for k in "abce"}
    kw.update({k: rng.randrange(101) for k in "ABC"})
    d, E = rng.randrange(101), rng.randrange(101)
    shape = rng.randrange(3)
    if shape == 0:
        f, Fc, D = 0, 0, rng.randrange(101)  # one-sided: anything goes
    elif shape == 1:
        f, Fc, D = rng.randrange(1, 101), 0, 0
    else:
        f, Fc = rng.randrange(1, 101), rng.randrange(1, 101)
        fs, Fs = F.scalar(f), F.scalar(Fc)
        e, ds, Es = F.scalar(kw["e"]), F.scalar(d), F.scalar(E)
        D = ((Fs * Fs * e + fs * Fs * (ds - Es)) / (fs * fs)).payload
    return T3(F, d=d, E=E, f=f, F=Fc, D=D, **kw)


def test_jnf_side_conditions_and_round_trip_random():
    rng = random.Random(113)
    F = PrimeField(101)
    checked = 0
    for _ in range(30):
        p = _aligned_random_tuple(rng, F)
        r = jordan_normal_form_3d(p)
        assert r.normalized
        q = r.params
        one = q.field.one()
        assert q.D.is_zero() and q.F.is_zero()
        assert q.e.is_zero() or q.e == one
        assert q.f.is_zero() or q.f == one
        if q.e.is_zero():
            assert q.A.is_zero() or q.A == one
            if q.A.is_zero():
                assert q.C.is_zero() or q.C == one
        else:
            assert q.d == q.E
        # replay the trace through the relations: both ideals match
        p_src = p if q.field == p.field else p.coerced(q.field)
        pres_src, pres_dst = build_T(p_src), build_T(q)
        alphabet = pres_src.alphabet

        def step_images(step):
            fld = step.pm.field
            x = NCPoly.letter(alphabet, fld, "x")
            y = NCPoly.letter(alphabet, fld, "y")
            z = NCPoly.letter(alphabet, fld, "z")
            return {
                "x": x.scale(step.pm[0, 0]) + y.scale(step.pm[0, 1]),
                "y": x.scale(step.pm[1, 0]) + y.scale(step.pm[1, 1]),
                "z": z.scale(step.lam),
            }

        rels = build_T(p).relations
        for step in r.trace:
            if step.kind == "extend_field":
                rels = [map_coeffs(rel, step.new_field.embed, step.new_field) for rel in rels]
                continue
            rels = [substitute(rel, step_images(step)) for rel in rels]
        for rel in rels:
            assert ideal_membership(rel, pres_dst, 2)
        rels = pres_dst.relations
        for step in inverse_steps(r.trace):
            if step.kind == "extend_field":
                continue  # stay in the extension on the way back
            rels = [substitute(rel, step_images(step)) for rel in rels]
        for rel in rels:
            assert ideal_membership(rel, pres_src, 2)
        checked += 1
    assert checked == 30


def _is_identity_step(step):
    fld = step.pm.field
    return step.pm == ScalarMatrix.identity(fld, 2) and step.lam == fld.one()


def test_jnf_records_no_identity_step():
    rng = random.Random(113)
    F = PrimeField(101)
    for _ in range(200):
        r = jordan_normal_form_3d(_aligned_random_tuple(rng, F))
        assert not any(_is_identity_step(s) for s in r.trace if s.kind != "extend_field"), r.trace
    # the census space is normalized already: every tuple is its own normal form
    for values in reference_t_space(3, {}):
        p = T3(PrimeField(3), **values)
        r = jordan_normal_form_3d(p)
        assert r.normalized and r.params == p and r.trace == (), (values, r.trace)


def test_jnf_obstruction_detected():
    # f = 1 with D != 0 cannot be aligned
    p = T3(f=1, D=1, a=1)
    r = jordan_normal_form_3d(p)
    assert not r.normalized and "eigendirection" in r.obstruction


# ---------------------------------------------------------------------------
# three-generator trichotomy
# ---------------------------------------------------------------------------


def test_classify_ore_cases():
    assert ore_case_id(T3(d=1, E=1)) == "1.i"
    assert ore_case_id(T3(d=2, E=1)) == "1.ii"
    assert ore_case_id(T3(d=1, E=2)) == "1.iii"
    assert ore_case_id(T3(d=2, E=3)) == "1.iv"
    assert ore_case_id(T3(e=1, d=1, E=1)) == "2.i"
    assert ore_case_id(T3(e=1, d=2, E=2)) == "2.ii"

    t = classify_3d(T3(d=1, E=1, a=2, b=3, c=4, B=5))
    assert t.kind == "ore" and t.case == "1.i" and t.certified_to is None


def test_classify_ore_rejects_bad_derivation():
    t = classify_3d(T3(d=2, E=0, A=1))
    assert t.kind == "not_ttp"
    assert t.witness.kind == "constraint_violated"
    assert "derivation condition" in t.witness.detail
    assert not t.witness.data["value"].is_zero()


def test_classify_reducible_case_ii():
    # e = B = C = 0, E = 1, f = 1 with f_n(a, d) nonvanishing
    t = classify_3d(T3(f=1, a=2, d=3, E=1), bound=50)
    assert t.kind == "reducible" and t.case == "ii"
    for _, v in reducible_system_residuals(t.normal_form):
        assert v.is_zero()


def test_classify_reducible_detects_fn_zero():
    t = classify_3d(T3(f=1, a=1, d=5, E=1))  # f_1(1, d) = 0
    assert t.kind == "not_ttp" and t.witness.kind == "fn_zero"
    assert t.witness.data["n"] == 1
    t = classify_3d(T3(f=1, a=Fraction(1, 2), d=0, E=1))  # f_2 = 1 - 2a - ad = 0
    assert t.kind == "not_ttp" and t.witness.data["n"] == 2


def test_classify_elliptic():
    t = classify_3d(T3(f=1, A=1, d=-1, E=-1, a=1, b=0, B=2, c=1, C=0))
    assert t.kind == "elliptic"
    assert t.elliptic_form.h == QQ.one() and t.elliptic_form.g.is_zero()
    assert t.certified_to is None


def test_classify_elliptic_rejects_wrong_d():
    t = classify_3d(T3(f=1, A=1, d=0, E=1, a=2))
    assert t.kind == "not_ttp"
    assert t.witness.kind == "constraint_violated"
    assert "d = -1" in t.witness.detail


def test_classify_obstructed_tuple_gets_hilbert_witness():
    t = classify_3d(T3(f=1, D=1))
    assert t.kind == "not_ttp"
    assert t.witness.kind == "hilbert_mismatch"
    assert t.witness.data["degree"] == 3


def test_classified_ttps_have_product_dimensions():
    rng = random.Random(127)
    F = PrimeField(5)
    samples = []
    for _ in range(10):
        # identity-sigma Ore tuples and elliptic tuples are always products
        samples.append(T3(F, d=1, E=1, a=rng.randrange(5), b=rng.randrange(5),
                          c=rng.randrange(5), B=rng.randrange(5)))
        a, B = F.scalar(rng.randrange(5)), F.scalar(rng.randrange(5))
        samples.append(T3(F, f=1, A=1, d=-1, E=-1, a=a,
                          b=(F.one() - a) * (F.scalar(2) - B), B=B,
                          c=rng.randrange(5), C=rng.randrange(5)))
        samples.append(T3(F, f=1, E=1, a=rng.randrange(2, 5), d=rng.randrange(5)))
    hits = {"ore": 0, "reducible": 0, "elliptic": 0, "not_ttp": 0, "unknown": 0}
    for p in samples:
        t = classify_3d(p)
        hits[t.kind] += 1
        if t.is_ttp:
            dims = build_T(t.normal_form).hilbert(4)
            assert dims == [1, 3, 6, 10, 15]
    assert hits["ore"] >= 10 and hits["elliptic"] >= 10 and hits["reducible"] > 0


def _random_decision_tuple(rng, field, draw):
    """A random f = 1 tuple with D = F = 0, weighted towards the strata each branch decides.

    draw() gives a random coefficient.  A quarter of the tuples are
    elliptic, a quarter miss the elliptic constraints in one place, and a
    quarter lie in the reducible stratum A = B = C = 0, E = 1, some of them
    moved off it in one coefficient.  A third are then carried by a random
    change of basis, for the normalization to undo.
    """
    kw = {k: draw() for k in "abcdABCE"}
    kw["e"] = rng.randrange(2)
    shape = rng.randrange(4)
    if shape in (1, 2):
        kw.update(e=0, d=-1, A=1, E=-1)
        kw["b"] = (1 - field.scalar(kw["a"])) * (2 - field.scalar(kw["B"]))
        if shape == 2:
            kw[rng.choice("edAEb")] = draw()
    elif shape == 3:
        kw.update(A=0, B=0, C=0, d=1 if kw["e"] else kw["d"], E=1)
        if rng.randrange(2):
            kw[rng.choice("ABCE")] = draw()
    if kw["e"] == 1:
        kw["E"] = kw["d"]
    p = ParamTuple3D.make(field, f=1, **kw)
    if rng.randrange(3) == 0:
        pm = ScalarMatrix(field, [[1, draw()], [0, 1]]) if rng.randrange(2) else ScalarMatrix(field, [[0, 1], [1, 0]])
        lam = draw()
        if pm.det().is_zero() or field.scalar(lam).is_zero():
            return p
        p = apply_basis_change(p, pm, lam)
    return p


def _outcome(decision):
    """The branch that gave a decision_3d result: a TTP kind, fn_zero or the violated constraint."""
    kind, _, _, witness = decision
    if kind != "not_ttp":
        return kind
    return witness[1].get("constraint", witness[0])


def test_classify_3d_matches_the_full_obstruction_reference():
    """G2 read to its first nonzero coefficient and G1 read last decide exactly as both read in full."""
    F3 = PrimeField(3)
    outcomes = set()
    for values in reference_t_space(3, {}):
        p = T3(F3, **values)
        want = reference_classify_3d(p)
        assert decision_3d(classify_3d(p)) == want, values
        outcomes.add(_outcome(want))
    every = {"reducible", "elliptic", "fn_zero", "e = 0", "d = -1", "A = 1", "E = -1", "b = (1-a)(2-B)"}
    assert outcomes == every

    rng = random.Random(131)
    F101 = PrimeField(101)
    draws = {
        F101: lambda: rng.randrange(101) if rng.randrange(2) else rng.choice((0, 1, -1, 2)),
        QQ: lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) if rng.randrange(2) else rng.choice((0, 1, -1, 2)),
    }
    for field, draw in draws.items():
        outcomes = set()
        for _ in range(500):
            p = _random_decision_tuple(rng, field, draw)
            want = reference_classify_3d(p)
            assert decision_3d(classify_3d(p)) == want, p
            outcomes.add(_outcome(want))
        assert outcomes == every, field


def test_second_obstruction_test_reads_every_row_of_g2():
    """On every f = 1, D = F = 0 coefficient choice over GF(3) the early exit agrees with G2 in full.

    The rows x^2z (-AE) and x^3 (A(1 - d - B)) vanish with the first row
    zx^2 (-A); each of the other seven rows, the last one y^3 included, is
    the first nonzero one for some choice, so a test that stopped before
    any of them would call some nonzero G2 zero.
    """
    F = PrimeField(3)
    first_rows = set()
    for values in product(range(3), repeat=9):
        p = make_params3d(F, f=1, **dict(zip("abcdeABCE", values)))
        _, g2 = degree3_overlap_elements(p)
        assert second_obstruction_vanishes(p) == g2.is_zero(), values
        if not g2.is_zero():
            first_rows.add(YXZ.word_str(max(g2.terms, key=YXZ.sort_key)))
    assert first_rows == {"zx^2", "yzx", "yxz", "yx^2", "y^2z", "y^2x", "y^3"}
