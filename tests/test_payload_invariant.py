"""Every payload a computation stores is a raw payload in canonical form.

A Q payload is an int, or a Fraction whose denominator is above 1; over
Q(sqrt(m)) each component of the (u, v) pair is such a payload; a GF(p)
payload is an int in [0, p).  No matrix row and no polynomial term holds
a Scalar or a zero.  The runs below record every stored payload they can
reach: the component matrices, their kernels (as rows and as columns),
the image rows that the minimal resolution inserts (for the rank count,
and in kernel coordinates where a generator is born),
every EchelonSpan row after every insertion, the rule tails of the
completed system, its letter multiplication map, every S-difference row
of the completion with its two operands, every reduced polynomial and
every word-times-entry row folded through the maps, and the
differentials of the minimal resolution.
"""

from collections import defaultdict
from fractions import Fraction

import pytest

from helpers import is_payload
from ttpkit import rewrite
from ttpkit.classify import classify_2d_ttp, graded_iso_type_2d
from ttpkit.families import ParamTuple2D, ParamTuple3D, build_T, build_Tgh
from ttpkit.freealg import NCPoly
from ttpkit.homology import GradedComplex, minimal_resolution
from ttpkit.koszulreg import gorenstein_check
from ttpkit.rewrite import RewriteSystem
from ttpkit.scalars import QQ, EchelonSpan, PrimeField, QuadExtField, ScalarMatrix

SQRT2 = QuadExtField(QQ, 2)


def _components(field, a):
    return a if isinstance(field, QuadExtField) else (a,)


def _check(field, a, where, seen):
    assert is_payload(field, a), f"{where}: {a!r} is not a canonical {field} payload"
    assert not field._is_zero(a), f"{where}: a zero is stored"
    for x in _components(field, a):
        seen[where].add(type(x))


def _check_rows(field, rows, where, seen):
    for row in rows:
        for a in row.values():
            _check(field, a, where, seen)


def _check_poly(poly, where, seen):
    _check_rows(poly.field, [poly.terms], where, seen)


@pytest.fixture
def seen(monkeypatch):
    """Check the payloads of every EchelonSpan, matrix, S-difference, reduced polynomial and folded row as they are made."""
    types = defaultdict(set)  # where -> payload types met there
    insert, rank_kernel = EchelonSpan._insert, ScalarMatrix.rank_kernel
    insert_image, kernel_rows = EchelonSpan.insert, ScalarMatrix.kernel_rows
    component_matrix = GradedComplex.component_matrix
    s_difference, reduce, multiply = rewrite._s_difference, RewriteSystem.reduce, RewriteSystem.multiply

    def checked_insert(self, vec):
        grew = insert(self, vec)
        _check_rows(self.field, self.rows.values(), "EchelonSpan row", types)
        return grew

    def checked_insert_image(self, vec):
        # in these runs the minimal resolution and the Frobenius pairings insert incrementally
        _check_rows(self.field, [vec], "image row", types)
        return insert_image(self, vec)

    def checked_kernel_rows(self):
        free, kernel = kernel_rows(self)
        _check_rows(self.field, kernel, "kernel", types)
        return free, kernel

    def checked_rank_kernel(self):
        rank, kernel = rank_kernel(self)
        _check_rows(self.field, kernel.rows, "kernel", types)
        return rank, kernel

    def checked_component_matrix(self, i, j):
        mat = component_matrix(self, i, j)
        _check_rows(mat.field, mat.rows, "component matrix", types)
        return mat

    def checked_s_difference(maps, left, mpp, m, tail):
        # its operands NF(tail_i) and tail_j too: an S-difference often reduces to zero
        row = s_difference(maps, left, mpp, m, tail)
        _check_rows(maps.field, [left, tail, row], "S-difference", types)
        return row

    def checked_reduce(self, p):
        nf = reduce(self, p)
        _check_poly(nf, "reduced", types)
        return nf

    def checked_multiply(self, word, p):
        row = multiply(self, word, p)
        _check_rows(self.field, [row], "reduced", types)
        return row

    monkeypatch.setattr(EchelonSpan, "_insert", checked_insert)
    monkeypatch.setattr(ScalarMatrix, "rank_kernel", checked_rank_kernel)
    monkeypatch.setattr(EchelonSpan, "insert", checked_insert_image)
    monkeypatch.setattr(ScalarMatrix, "kernel_rows", checked_kernel_rows)
    monkeypatch.setattr(GradedComplex, "component_matrix", checked_component_matrix)
    monkeypatch.setattr(rewrite, "_s_difference", checked_s_difference)
    monkeypatch.setattr(RewriteSystem, "reduce", checked_reduce)
    monkeypatch.setattr(RewriteSystem, "multiply", checked_multiply)
    return types


def _run(pres, maxdeg, seen):
    """The resolution of pres, then its Gorenstein evidence; returns (res, the types met before the evidence, profile)."""
    res = minimal_resolution(pres, 4, maxdeg)
    rs = pres.completed(maxdeg)
    for rule in rs.rules:
        _check_poly(rule.tail, "rule tail", seen)
    assert rs._right.entries, "the run filled no multiplication map"
    _check_rows(rs.field, rs._right.entries.values(), "multiplication map", seen)
    for mat in res.complex.diffs[1:]:
        for row in mat:
            for entry in row:
                _check_poly(entry, "differential", seen)
    for where in ("rule tail", "S-difference", "reduced", "differential", "kernel", "image row"):
        assert seen[where], f"the run reached no {where}"
    resolved = {where: set(types) for where, types in seen.items()}
    return res, resolved, gorenstein_check(pres, maxdeg)


def test_elliptic_q_run_keeps_integral_data_int(seen):
    res, resolved, profile = _run(build_Tgh(QQ.scalar(1), QQ.scalar(2)), 6, seen)
    assert res.betti.entries[(3, 3)] == 1 and profile.clean
    # integer coefficients and monic rules: the normal forms, the matrices,
    # the S-differences, the spans and the resolution are integral at this size.
    # The Gorenstein evidence runs on the quadratic dual, whose relation
    # w'^2 - 1/2 y'^2 - 1/2 y'w' (from w^2 + 2y^2) is not
    for where in (
        "rule tail", "multiplication map", "component matrix", "image row",
        "kernel", "S-difference", "reduced", "differential", "EchelonSpan row",
    ):
        assert resolved[where] == {int}, where
    assert set().union(*seen.values()) == {int, Fraction}


def test_ore_q_run_with_fractions_keeps_the_invariant(seen):
    half3 = Fraction(3, 2)
    p = ParamTuple3D.make(QQ, d=-2, E=-1, B=1, C=1, a=half3, b=half3)
    assert _run(build_T(p), 6, seen)[2].clean
    assert set().union(*seen.values()) == {int, Fraction}


def test_quadratic_extension_components_keep_the_invariant(seen):
    g = SQRT2.scalar(Fraction(1, 2)) + SQRT2.scalar(Fraction(3, 2)) * SQRT2.root()
    assert _run(build_Tgh(g, SQRT2.scalar(Fraction(3, 2))), 5, seen)[2].clean
    assert set().union(*seen.values()) == {int, Fraction}


def test_prime_field_run_stores_reduced_ints(seen):
    gf = PrimeField(101)
    assert _run(build_Tgh(gf.scalar(3), gf.scalar(2)), 6, seen)[2].clean
    # the Ore tuple of the Q run: 3/2 is 52 in GF(101)
    p = ParamTuple3D.make(gf, d=-2, E=-1, B=1, C=1, a=52, b=52)
    assert _run(build_T(p), 6, seen)[2].clean
    assert set().union(*seen.values()) == {int}


def _two_generator_payloads(field, params):
    """Check every payload of the 2-D verdict and iso type of params over field; the payload types met."""
    seen = defaultdict(set)
    v = classify_2d_ttp(ParamTuple2D.make(field, *params), 20)
    if not v.is_ttp:
        _check_poly(v.witness.data["relation"], "relation", seen)
        return set().union(*seen.values())
    iso = graded_iso_type_2d(v)
    for q in (iso.q, *iso.roots) if iso.q is not None else ():
        assert is_payload(q.field, q.payload), (params, q)
    for name in ("m", "n", "target"):
        m = getattr(iso.witness, name)
        _check_rows(m.field, m.rows, name, seen)
    return set().union(*seen.values())


def test_two_generator_witnesses_store_payloads():
    # every branch of graded_iso_type_2d that builds matrices, over Q, GF(101)
    # and Q(sqrt(2)), and the not_ttp dependence relation
    q_cases = [(Fraction(1, 4), 0, 1), (3, -1, 1), (-3, -1, 1), (2, 3, 1), (-2, 5, 1), (Fraction(1, 2), 0, 1)]
    assert set().union(*(_two_generator_payloads(QQ, params) for params in q_cases)) == {int, Fraction}
    # an integral Jordan class: s = (b - 1)/2 = 2 is stored as an int
    assert graded_iso_type_2d(classify_2d_ttp(ParamTuple2D.make(QQ, 4, 5, 1))).kind == "jordan"
    assert _two_generator_payloads(QQ, (4, 5, 1)) == {int}
    gf_cases = [(3, 99, 1), (11, 100, 1), (13, 100, 1), (2, 3, 1), (1, 5, 1), (4, 5, 1), (50, 3, 1)]
    assert all(_two_generator_payloads(PrimeField(101), params) == {int} for params in gf_cases)
    ext_cases = [(Fraction(1, 4), 0, 1), (-1, -1, 1), (Fraction(1, 2), 0, 1)]
    assert set().union(*(_two_generator_payloads(SQRT2, params) for params in ext_cases)) == {int, Fraction}


def test_polynomials_over_different_prime_fields_differ():
    # the same words with the same int payloads: only the field tells them apart
    five, seven = PrimeField(5), PrimeField(7)
    A = build_Tgh(five.scalar(1), five.scalar(2)).alphabet
    p = NCPoly(A, five, {(0, 1): 2, (1,): 3})
    q = NCPoly(A, seven, {(0, 1): 2, (1,): 3})
    assert p.terms == q.terms
    assert p != q and q != p
    assert NCPoly.zero(A, five) != NCPoly.zero(A, seven)
    assert p == NCPoly(A, five, {(1,): 3, (0, 1): 7})
