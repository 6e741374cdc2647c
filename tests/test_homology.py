import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest
from helpers import RightComplex, compose_check, dualize, euler_check, greedy_new_generators, reference_reduce

from ttpkit import homology
from ttpkit.families import ParamTuple2D, ParamTuple3D, Presentation, build_C, build_T, build_Tgh
from ttpkit.freealg import Alphabet, NCPoly, parse_poly
from ttpkit.homology import (
    BettiTable,
    GradedComplex,
    _outside_image,
    build_p_complex,
    build_q_complex,
    exactness_profile,
    minimal_resolution,
)
from ttpkit.scalars import QQ, EchelonSpan, PrimeField, QuadExtField, ScalarMatrix


def tgh(g, h, field=QQ):
    return build_Tgh(field.scalar(g), field.scalar(h))


def test_q_complex_composes_to_zero():
    cx = build_q_complex(QQ.scalar(3), QQ.scalar(5))
    assert compose_check(cx, 8)


def test_q_complex_detects_corruption():
    field = QQ
    cx = build_q_complex(field.scalar(3), field.scalar(5))
    bad = [row[:] for row in cx.diffs[3]]
    bad[0][0] = bad[0][0] + NCPoly.letter(cx.pres.alphabet, field, "x")
    broken = GradedComplex(cx.pres, cx.shifts, [cx.diffs[1], cx.diffs[2], bad])
    assert not compose_check(broken, 6)


def test_component_matrix_degree_one_is_full_rank():
    cx = build_q_complex(QQ.scalar(2), QQ.scalar(7))
    m = cx.component_matrix(1, 1)
    # three generators map onto the three degree-1 algebra elements
    assert m.nrows == 3 and m.ncols == 3 and m.rank() == 3


def test_component_matrix_top_row():
    cx = build_q_complex(QQ.scalar(2), QQ.scalar(7))
    m = cx.component_matrix(3, 3)
    assert m.ncols == 1 and m.rank() == 1


def test_q_complex_resolves_trivial_module():
    rng = random.Random(131)
    for field in (QQ, PrimeField(101)):
        for _ in range(2):
            g = field.scalar(rng.randint(-9, 9))
            h = field.scalar(rng.randint(1, 9))
            cx = build_q_complex(g, h)
            homology = exactness_profile(cx, maxdeg=8)
            assert homology == {(0, 0): 1}, homology


def test_q_complex_fails_when_h_vanishes():
    # the same matrices with h = 0: the top row degenerates to [0 w 0],
    # which has w in its kernel (w^2 = 0), so position 3 acquires homology
    cx = build_q_complex(QQ.scalar(4), QQ.zero())
    homology = exactness_profile(cx, maxdeg=6)
    assert homology != {(0, 0): 1}
    assert homology.get((3, 4), 0) >= 1
    assert any(i == 2 for (i, j) in homology)


def test_p_complex_resolves_trivial_module():
    cx = build_p_complex(QQ.scalar(5), max_i=9)
    assert compose_check(cx, 8)
    homology = exactness_profile(cx, maxdeg=8)
    assert homology == {(0, 0): 1}, homology


def test_identity_complex_exact():
    pres = tgh(1, 1)
    one = NCPoly.one(pres.alphabet, QQ)
    cx = GradedComplex(pres, [[0], [0]], [[[one]]])
    assert exactness_profile(cx, maxdeg=4) == {}


def test_minimal_resolution_koszul_case():
    res = minimal_resolution(tgh(2, 3), max_i=8, maxdeg=8)
    assert res.betti == BettiTable({(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1})
    assert not res.truncated_at_position
    assert compose_check(res.complex, 8)
    assert exactness_profile(res.complex, maxdeg=6) == {(0, 0): 1}
    assert euler_check(tgh(2, 3), res.betti, 8)


def test_minimal_resolution_degenerate_case_matches_periodic_shape():
    res = minimal_resolution(tgh(4, 0), max_i=8, maxdeg=9)
    expect = {(0, 0): 1, (1, 1): 3, (2, 2): 3}
    for i in range(3, 9):
        expect[(i, i)] = 1
        expect[(i, i + 1)] = 1
    assert res.betti == BettiTable(expect)
    assert res.truncated_at_position  # the kernel keeps going past max_i
    # with the prefix one step past the degree window, the check is clean
    homology = exactness_profile(res.complex, maxdeg=8)
    assert homology == {(0, 0): 1}, homology


def test_minimal_resolution_matches_q_and_p_betti():
    rng = random.Random(137)
    for _ in range(3):
        g = QQ.scalar(rng.randint(-6, 6))
        h = QQ.scalar(rng.randint(1, 6))
        res = minimal_resolution(build_Tgh(g, h), max_i=6, maxdeg=7)
        q = build_q_complex(g, h)
        expected = {}
        for i, shifts in enumerate(q.shifts):
            for s in shifts:
                expected[(i, s)] = expected.get((i, s), 0) + 1
        assert res.betti == BettiTable(expected)


def test_minimal_resolution_commutative_plane():
    # k[x,y] via its two-generator presentation: Betti 1, 2, 1 on the diagonal
    pres = build_C(ParamTuple2D.make(QQ, 0, 1, 0))  # zx - xz
    res = minimal_resolution(pres, max_i=5, maxdeg=6)
    assert res.betti == BettiTable({(0, 0): 1, (1, 1): 2, (2, 2): 1})
    assert exactness_profile(res.complex, maxdeg=6) == {(0, 0): 1}


def test_minimal_resolution_fibonacci_algebra_is_linear_but_infinite():
    pres = build_C(ParamTuple2D.make(QQ, 1, -1, 1))
    res = minimal_resolution(pres, max_i=4, maxdeg=6)
    # global dimension is infinite; every computed position is diagonal
    assert not res.betti.off_diagonal()
    assert res.truncated_at_position


def test_euler_check_rejects_corruption():
    res = minimal_resolution(tgh(2, 3), max_i=6, maxdeg=8)
    good = res.betti
    assert euler_check(tgh(2, 3), good, 8)
    bad = BettiTable(dict(good.entries))
    bad.entries[(2, 2)] = 4
    assert not euler_check(tgh(2, 3), bad, 8)


def test_euler_check_degenerate_tail_telescopes():
    res = minimal_resolution(tgh(1, 0), max_i=8, maxdeg=9)
    assert euler_check(tgh(1, 0), res.betti, 8)


def test_dual_complex_of_q_has_single_top_homology():
    cx = build_q_complex(QQ.scalar(3), QQ.scalar(2))
    dual = dualize(cx)
    assert isinstance(dual, RightComplex)
    assert compose_check(dual, 8)
    homology = exactness_profile(dual, maxdeg=5, mindeg=-3)
    assert homology == {(0, -3): 1}, homology


def test_left_right_betti_symmetry():
    # T(g,h) is isomorphic to its opposite: the right resolution of the
    # trivial module realizes the same Betti numbers as the left one
    pres = tgh(3, 2)
    left = minimal_resolution(pres, max_i=4, maxdeg=6)
    # right-module resolution: reuse the machinery through the opposite algebra
    field, A = pres.field, pres.alphabet
    opposite = [
        NCPoly(A, field, {tuple(reversed(w)): c for w, c in rel.terms.items()})
        for rel in pres.relations
    ]
    from ttpkit.families import Presentation

    pres_op = Presentation(A, field, opposite)
    right = minimal_resolution(pres_op, max_i=4, maxdeg=6)
    assert left.betti == right.betti


def test_minimal_resolution_never_reduces_zero(monkeypatch):
    from ttpkit.rewrite import RewriteSystem

    reduce, multiply = RewriteSystem.reduce, RewriteSystem.multiply
    zeros = []

    def checked(self, p):
        if p.is_zero():
            zeros.append(p)
        return reduce(self, p)

    def checked_multiply(self, word, p):
        if p.is_zero():
            zeros.append(p)
        return multiply(self, word, p)

    monkeypatch.setattr(RewriteSystem, "reduce", checked)
    monkeypatch.setattr(RewriteSystem, "multiply", checked_multiply)
    for h in (0, 2):
        minimal_resolution(tgh(1, h), 5, 6)
    assert not zeros


def oracle_component_matrix(cx, i, j, rs):
    """component_matrix(i, j) with each word-times-entry product reduced by the leftmost-redex oracle."""
    def basis(shifts):
        words = rs.normal_words(j - min(shifts)) if j >= min(shifts) else []
        return [(gen, w) for gen, s in enumerate(shifts) if j >= s for w in words[j - s]]

    field, src, dst = rs.field, basis(cx.shifts[i]), basis(cx.shifts[i - 1])
    rows = [{} for _ in range(max(len(dst), 1))]
    for col, (gen, word) in enumerate(src):
        w = NCPoly(rs.alphabet, field, {word: 1})
        for tgt, entry in enumerate(cx.diffs[i][gen]):
            prod = entry * w if isinstance(cx, RightComplex) else w * entry
            for u, c in reference_reduce(prod, rs.rules).terms.items():
                rows[dst.index((tgt, u))][col] = c
    return ScalarMatrix.from_sparse(field, rows, len(src))


def test_component_matrices_match_rewriting_oracle_on_both_sides():
    # word times entry folded through the multiplication map for a
    # resolution of left modules; entry times word reduced for the dual
    # right-module complex of the test oracle
    for pres in (tgh(2, 3), build_T(ParamTuple3D.make(QQ, d=-2, E=-1, B=1, C=1, a=Fraction(3, 2), b=Fraction(3, 2)))):
        res = minimal_resolution(pres, 4, 6)
        top = max(res.complex.shifts[-1])
        rs = pres.completed(6)
        for cx, low in ((res.complex, 0), (dualize(res.complex), -top)):
            for i in range(1, len(cx)):
                for j in range(low, low + 7):
                    assert cx.component_matrix(i, j) == oracle_component_matrix(cx, i, j, rs), (pres, cx, i, j)


def raw_presentation(names, relations, weights=None):
    alphabet = Alphabet(names, weights)
    return Presentation(alphabet, QQ, [parse_poly(alphabet, QQ, r) for r in relations])


GF32003 = PrimeField(32003)
# (presentation, max_i, maxdeg): Tgh with h != 0 and h = 0 over Q and
# GF(32003), an Ore T tuple, C(1,-1,1), C(0,2,0), a monomial relation and
# a weighted alphabet
PINNED_RESOLUTIONS = [
    (tgh(2, 3), 5, 7),
    (tgh(4, 0), 6, 7),
    (tgh(2, 3, GF32003), 5, 7),
    (tgh(4, 0, GF32003), 6, 7),
    (build_T(ParamTuple3D.make(QQ, d=1, E=1, a=2, b=3, B=4)), 5, 6),
    (build_C(ParamTuple2D.make(QQ, 1, -1, 1)), 5, 6),
    (build_C(ParamTuple2D.make(QQ, 0, 2, 0)), 5, 6),
    (raw_presentation(["x", "y"], ["xyxy"]), 5, 9),
    (raw_presentation(["x", "y"], ["xy - yx", "x^4 - y^2"], (1, 2)), 5, 8),
]


def test_minimal_resolution_differentials_are_pinned():
    # the generator choice is deterministic: a change in which kernel
    # vectors become generators changes the differentials and this hash
    parts = []
    for pres, max_i, maxdeg in PINNED_RESOLUTIONS:
        res = minimal_resolution(pres, max_i, maxdeg)
        cx = res.complex
        parts.append(repr((res.betti, res.truncated_at_position, cx.shifts, cx.diffs[1:])))
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    assert digest == "21242147cf10a19ed17905282fe3f955e48359aeacf58349787ddb2a50708d8c"


def test_minimal_resolution_builds_each_component_matrix_once(monkeypatch):
    # the degree-j matrix of d_{i+1} is built once, for the image span at
    # position i, and carried to position i+1 with the new generators' columns
    build = GradedComplex.component_matrix
    built = []

    def spy(self, i, j):
        built.append((i, j))
        return build(self, i, j)

    monkeypatch.setattr(GradedComplex, "component_matrix", spy)
    minimal_resolution(tgh(4, 0), 6, 8)
    twice = sorted(key for key, n in Counter(built).items() if n > 1)
    assert built and not twice, twice


def test_minimal_resolution_carried_matrices_match_fresh_builds(monkeypatch):
    # a kernel is taken only where a generator is born, from the carried
    # matrix; it, and every matrix built during the run as its rows stand at
    # the end (the carried ones extended in place by the new generators'
    # columns), must equal the component matrix built from nothing on the
    # finished complex, column order included
    kernel_rows, build = ScalarMatrix.kernel_rows, GradedComplex.component_matrix
    seen, built = [], []

    def spy(self):
        seen.append(self)
        return kernel_rows(self)

    def spy_build(self, i, j):
        mat = build(self, i, j)
        built.append((i, j, mat))
        return mat

    for pres, max_i, maxdeg in PINNED_RESOLUTIONS:
        seen.clear()
        built.clear()
        with monkeypatch.context() as patch:
            patch.setattr(ScalarMatrix, "kernel_rows", spy)
            patch.setattr(GradedComplex, "component_matrix", spy_build)
            cx = minimal_resolution(pres, max_i, maxdeg).complex
        # the degree-j generators of position i+1 are born at (i, j); none past max_i
        births = [(i, j) for i in range(1, len(cx) - 1) for j in sorted(set(cx.shifts[i + 1]))]
        assert len(seen) == len(births), pres
        for (i, j), carried in zip(births, seen):
            assert carried == cx.component_matrix(i, j), (pres, i, j)
        assert built, pres
        for i, j, mat in built:
            assert mat.rows == cx.component_matrix(i, j).rows, (pres, i, j)


def test_minimal_resolution_counted_kernels_match_elimination(monkeypatch):
    # dim ker d_i is counted from exactness below position i, not eliminated;
    # at every position, max_i included, and every degree it must equal the
    # nullity of the component matrix built from nothing on the finished complex
    count = homology._kernel_dims
    counted = {}

    def spy(cx, i, below, maxdeg):
        counted[i] = count(cx, i, below, maxdeg)
        return counted[i]

    monkeypatch.setattr(homology, "_kernel_dims", spy)
    for pres, max_i, maxdeg in PINNED_RESOLUTIONS:
        counted.clear()
        cx = minimal_resolution(pres, max_i, maxdeg).complex
        assert sorted(counted) == list(range(1, len(cx))), pres
        for i, dims in counted.items():
            assert len(dims) == maxdeg + 1
            for j, K in enumerate(dims):
                assert K == len(cx.component_matrix(i, j).kernel_rows()[0]), (pres, i, j)


def test_minimal_resolution_image_count_stops_at_the_kernel_dimension(monkeypatch):
    # the partial next differential's rows are echelonized only until their
    # rank reaches the counted kernel dimension: no row enters that span once
    # it has rank K, and the count is the true rank capped at K
    image_rank, insert = homology._image_rank, EchelonSpan.insert
    bounds, inserts, stopped = [], [], []

    def spy_image_rank(rows, bound, field):
        ncols = max((c + 1 for row in rows for c in row), default=0)
        full = ScalarMatrix.from_sparse(field, [dict(row) for row in rows], ncols).rank()
        bounds.append(bound)
        inserts.clear()
        try:
            rank = image_rank(rows, bound, field)
        finally:
            bounds.pop()
        assert rank == min(full, bound)
        stopped.append(len(inserts) < sum(1 for row in rows if row))
        return rank

    def spy_insert(self, vec):
        if bounds:
            assert self.rank < bounds[-1], "an image row entered after the rank reached K"
            inserts.append(vec)
        return insert(self, vec)

    monkeypatch.setattr(homology, "_image_rank", spy_image_rank)
    monkeypatch.setattr(EchelonSpan, "insert", spy_insert)
    for pres, max_i, maxdeg in PINNED_RESOLUTIONS:
        minimal_resolution(pres, max_i, maxdeg)
    # rows were left over somewhere, so the stop was exercised
    assert any(stopped)


def test_minimal_resolution_transposes_no_matrix(monkeypatch):
    # the carried matrices stay in row form; new columns are appended as entries
    transpose = ScalarMatrix.transpose
    calls = []

    def spy(self):
        calls.append(self)
        return transpose(self)

    monkeypatch.setattr(ScalarMatrix, "transpose", spy)
    for pres, max_i, maxdeg in PINNED_RESOLUTIONS:
        minimal_resolution(pres, max_i, maxdeg)
    assert not calls


def test_graded_basis_is_built_once_per_argument(monkeypatch):
    # a complex keeps each (system, shifts, degree) basis it builds: the
    # resolution and the exactness check of its complex build none twice,
    # and component_dim counts from the Hilbert function without a basis
    build = homology._graded_basis
    calls = []

    def spy(rs, shifts, j):
        calls.append((rs, tuple(shifts), j))
        return build(rs, shifts, j)

    monkeypatch.setattr(homology, "_graded_basis", spy)
    for pres, max_i, maxdeg in PINNED_RESOLUTIONS:
        calls.clear()
        cx = minimal_resolution(pres, max_i, maxdeg).complex
        exactness_profile(cx, maxdeg)
        twice = [key for key, n in Counter(calls).items() if n > 1]
        assert calls and not twice, (pres, twice)
        rs = pres.completed(maxdeg)
        for i in range(len(cx)):
            for j in range(maxdeg + 1):
                assert cx.component_dim(i, j) == len(build(rs, cx.shifts[i], j)), (pres, i, j)


def test_graded_basis_follows_shifts_and_system():
    # a grown position or a further completion is a new key, never a stale basis
    pres = tgh(2, 3)
    cx = minimal_resolution(pres, 3, 3).complex
    rs = pres.completed(3)
    before = cx._basis(rs, 2, 3)
    cx.shifts[2].append(3)
    assert cx._basis(rs, 2, 3) == before + [(len(cx.shifts[2]) - 1, ())]
    rs6 = pres.completed(6)
    assert rs6 is not rs
    assert cx._basis(rs6, 2, 3) is not cx._basis(rs, 2, 3)


@pytest.mark.parametrize("field", [QQ, PrimeField(7), QuadExtField(QQ, 2)], ids=["Q", "GF7", "Qsqrt2"])
def test_kernel_coordinate_selection_matches_greedy_insert(field):
    # random matrices, image columns random combinations of their kernel
    # basis: the pivot complement in reversed kernel coordinates must pick
    # what inserting the kernel vectors one by one after the image picks
    rng = random.Random(59)
    root = field.root() if isinstance(field, QuadExtField) else field.zero()

    def entry():
        if rng.random() < 0.4:
            return field.zero()
        return field.scalar(rng.randint(-3, 3)) + field.scalar(rng.randint(-1, 1)) * root

    differs = 0
    for _ in range(80):
        m, n = rng.randint(1, 3), rng.randint(3, 9)
        free, kernel = ScalarMatrix(field, [[entry() for _ in range(n)] for _ in range(m)]).kernel_rows()
        assert len(free) == len(kernel) and all(list(vec) == sorted(vec) for vec in kernel)
        cols = []
        for _ in range(rng.randint(0, len(kernel) + 1)):
            col = {}
            for vec in kernel:
                c = entry()
                if rng.random() < 0.5 and not c.is_zero():
                    field._add_multiple(col, c.payload, vec)
            cols.append(col)
        picked = _outside_image(free, cols, field)
        assert picked == greedy_new_generators(kernel, cols, field)
        differs += picked != [k for k in range(len(kernel)) if k not in _lowest_coordinates(free, cols, field)]
    # the reversal matters: pivots at the smallest coordinate pick otherwise
    assert differs > 10, differs


def _lowest_coordinates(free, cols, field):
    """The first nonzero kernel coordinates of the image span, with no reversal."""
    coord = {c: k for k, c in enumerate(free)}
    span = EchelonSpan(field)
    for col in cols:
        span.insert({coord[c]: a for c, a in col.items() if c in coord})
    return set(span.rows)


def test_minimal_resolution_inserts_no_kernel_vector(monkeypatch):
    # only image vectors enter a span: the partial next differential's rows
    # for the count, and its columns renumbered to kernel coordinates in
    # _outside_image's span, whose pivots give the new generators
    kernel_rows, insert, insert_rows = ScalarMatrix.kernel_rows, EchelonSpan.insert, EchelonSpan._insert
    outside_image = homology._outside_image
    widths, kernel_vectors, inserted, in_kernel_coordinates = [], [], [], []

    def spy_kernel_rows(self):
        free, kernel = kernel_rows(self)
        kernel_vectors.extend(kernel)
        return free, kernel

    def spy_outside_image(free, cols, field):
        widths.append(len(free))
        try:
            return outside_image(free, cols, field)
        finally:
            widths.pop()

    def spy_insert(self, vec):
        if widths:
            assert all(0 <= c < widths[-1] for c in vec), "an inserted row is not in kernel coordinates"
            in_kernel_coordinates.append(vec)
        return insert(self, vec)

    def spy_insert_rows(self, vec):
        inserted.append(vec)
        return insert_rows(self, vec)

    for pres, max_i, maxdeg in PINNED_RESOLUTIONS:
        with monkeypatch.context() as patch:
            patch.setattr(ScalarMatrix, "kernel_rows", spy_kernel_rows)
            patch.setattr(homology, "_outside_image", spy_outside_image)
            patch.setattr(EchelonSpan, "insert", spy_insert)
            patch.setattr(EchelonSpan, "_insert", spy_insert_rows)
            minimal_resolution(pres, max_i, maxdeg)
    assert kernel_vectors and inserted and in_kernel_coordinates
    # both lists hold their dicts alive, so equal ids mean the same dict
    kernel_ids = {id(vec) for vec in kernel_vectors}
    assert not [vec for vec in inserted if id(vec) in kernel_ids]


def test_minimal_resolution_betti_ignores_generators_above_maxdeg():
    # y has weight 2, beyond maxdeg 1: the Betti table counts x alone
    res = minimal_resolution(raw_presentation(["x", "y"], ["xy - yx", "x^4 - y^2"], (1, 2)), 3, 1)
    assert res.betti == BettiTable({(0, 0): 1, (1, 1): 1})


def minimal_relation_count(pres, j):
    """dim Tor_2 in degree j: the rank of the degree-j relations modulo the ideal of the lower-degree ones."""
    field = pres.field
    relations = [r for r in pres.relations if not r.is_zero()]
    lower = Presentation(pres.alphabet, field, [r for r in relations if r.degree() < j]).completed(j)
    rows = [lower.reduce(r).terms for r in relations if r.degree() == j]
    columns = {w: c for c, w in enumerate(dict.fromkeys(w for row in rows for w in row))}
    return ScalarMatrix.from_sparse(field, [{columns[w]: a for w, a in row.items()} for row in rows], len(columns)).rank()


def random_mixed_degree_presentation(rng):
    """A random quadratic relation r on x, y and a cubic one: random, or a u r + b r v for letters u, v."""
    alphabet = Alphabet(["x", "y"])
    coeffs = [0] * 4
    while not any(coeffs):
        coeffs = [rng.randint(-2, 2) for _ in range(4)]
    quadratic = NCPoly(alphabet, QQ, dict(zip([(0, 0), (0, 1), (1, 0), (1, 1)], coeffs)))
    if rng.random() < 0.5:
        u, v = (NCPoly.letter(alphabet, QQ, rng.choice("xy")) for _ in range(2))
        cubic = rng.choice([1, -1, 2]) * u * quadratic + rng.choice([1, -1, 3]) * quadratic * v
    else:
        words = rng.sample([(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)], 2)
        cubic = NCPoly(alphabet, QQ, {w: rng.randint(1, 3) for w in words})
    return Presentation(alphabet, QQ, [quadratic, cubic])


# relations of mixed degree: a redundant cubic x(xy - yx) + (xy - yx)x, an
# independent x^3, a relation given twice (up to a scalar), a zero relation,
# and a weighted alphabet (y of weight 2) with a redundant and an
# independent relation in degree 4
MIXED_DEGREE_RELATIONS = [
    (["x", "y"], ["xy - yx", "x^2y - yx^2"], None),
    (["x", "y"], ["xy - yx", "x^3"], None),
    (["x", "y"], ["xy - yx", "2yx - 2xy", "xyx - yxy"], None),
    (["x", "y"], ["xy - yx", "0"], None),
    (["x", "y", "z"], ["xy - yx", "xz - zx", "yz^2 - z^2y"], None),
    (["x", "y"], ["xy - yx", "x^2y - yx^2", "x^4 - y^2"], (1, 2)),
]


def test_minimal_resolution_second_position_counts_the_minimal_relations():
    # Tor_2 is the space of minimal relations I/(T_+ I + I T_+), so position
    # 2 gets generators only in the degrees of relations, and b[2, j] is the
    # rank of the degree-j relations modulo the ideal of the lower-degree
    # ones; the resolution must stay exact below its last position
    rng = random.Random(233)
    cases = [raw_presentation(*case) for case in MIXED_DEGREE_RELATIONS]
    cases += [random_mixed_degree_presentation(rng) for _ in range(8)]
    maxdeg = 7
    for pres in cases:
        res = minimal_resolution(pres, 4, maxdeg)
        for j in range(maxdeg + 1):
            assert res.betti.b(2, j) == minimal_relation_count(pres, j), (pres, j)
        cx = res.complex
        profile = exactness_profile(cx, maxdeg)
        assert {key: h for key, h in profile.items() if key[0] < len(cx) - 1} == {(0, 0): 1}, (pres, profile)


def test_minimal_resolution_builds_d2_only_in_relation_degrees(monkeypatch):
    # Tgh has three quadratic relations: at position 1 the partial d_2 is
    # built for degree 2 only, and no other degree can get a generator at
    # position 2
    count, build = homology._kernel_dims, GradedComplex.component_matrix
    position, built = [None], []

    def spy_count(cx, i, below, maxdeg):
        position[0] = i
        return count(cx, i, below, maxdeg)

    def spy_build(self, i, j):
        built.append((position[0], i, j))
        return build(self, i, j)

    monkeypatch.setattr(homology, "_kernel_dims", spy_count)
    monkeypatch.setattr(GradedComplex, "component_matrix", spy_build)
    res = minimal_resolution(tgh(1, 2), 6, 8)
    assert res.betti == BettiTable({(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1})
    assert [j for at, i, j in built if at == 1 and i == 2] == [2]
