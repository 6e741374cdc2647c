"""Every payload a computation over Q stores obeys the scalars invariant.

A Q payload is an int, or a Fraction whose denominator is above 1; over
Q(sqrt(m)) each component of the (u, v) pair is such a payload.  The runs
below record every stored payload they can reach: the component matrices,
their kernels, every EchelonSpan row after every insertion, the rule tails
of the completed system, its normal-form table and the differentials of
the minimal resolution.
"""

from collections import defaultdict
from fractions import Fraction

import pytest

from ttpkit.families import ParamTuple3D, build_T, build_Tgh
from ttpkit.homology import GradedComplex, minimal_resolution
from ttpkit.koszulreg import gorenstein_check
from ttpkit.scalars import QQ, EchelonSpan, QuadExtField, ScalarMatrix

SQRT2 = QuadExtField(QQ, 2)


def _q_payloads(field, a):
    return a if isinstance(field, QuadExtField) else (a,)


def _check(field, a, where, seen):
    for x in _q_payloads(field, a):
        ok = type(x) is int or (type(x) is Fraction and x.denominator > 1)
        assert ok, f"{where}: payload {x!r} breaks the Q payload invariant"
        seen[where].add(type(x))


def _check_rows(field, rows, where, seen):
    for row in rows:
        for a in row.values():
            _check(field, a, where, seen)


def _check_poly(poly, where, seen):
    for c in poly.terms.values():
        _check(poly.field, c.payload, where, seen)


@pytest.fixture
def seen(monkeypatch):
    """Check the payloads of every EchelonSpan, component matrix and kernel as they are made."""
    types = defaultdict(set)  # where -> payload types met there
    insert, rank_kernel = EchelonSpan._insert, ScalarMatrix.rank_kernel
    component_matrix = GradedComplex.component_matrix

    def checked_insert(self, vec):
        grew = insert(self, vec)
        _check_rows(self.field, self.rows.values(), "EchelonSpan row", types)
        return grew

    def checked_rank_kernel(self):
        rank, kernel = rank_kernel(self)
        _check_rows(self.field, kernel.rows, "kernel", types)
        return rank, kernel

    def checked_component_matrix(self, i, j):
        mat = component_matrix(self, i, j)
        _check_rows(mat.field, mat.rows, "component matrix", types)
        return mat

    monkeypatch.setattr(EchelonSpan, "_insert", checked_insert)
    monkeypatch.setattr(ScalarMatrix, "rank_kernel", checked_rank_kernel)
    monkeypatch.setattr(GradedComplex, "component_matrix", checked_component_matrix)
    return types


def _run(pres, maxdeg, seen):
    res = minimal_resolution(pres, 4, maxdeg)
    gorenstein_check(pres, res.complex, maxdeg)
    rs = pres.completed(maxdeg)
    for rule in rs.rules:
        _check_poly(rule.tail, "rule tail", seen)
    assert rs._nf, "the run filled no normal-form table"
    for nf in rs._nf.values():
        _check_rows(rs.field, [nf], "normal-form table", seen)
    for mat in res.complex.diffs[1:]:
        for row in mat:
            for entry in row:
                _check_poly(entry, "differential", seen)
    return res


def test_elliptic_q_run_keeps_integral_data_int(seen):
    res = _run(build_Tgh(QQ.scalar(1), QQ.scalar(2)), 6, seen)
    assert res.betti.entries[(3, 3)] == 1
    # integer coefficients and monic rules: the normal forms, the matrices
    # and the resolution are integral; pivot division in the spans and the
    # kernels may still leave a proper Fraction
    for where in ("rule tail", "normal-form table", "component matrix", "differential"):
        assert seen[where] == {int}, where
    assert seen["EchelonSpan row"] == seen["kernel"] == {int, Fraction}


def test_ore_q_run_with_fractions_keeps_the_invariant(seen):
    half3 = Fraction(3, 2)
    p = ParamTuple3D.make(QQ, d=-2, E=-1, B=1, C=1, a=half3, b=half3)
    _run(build_T(p), 6, seen)
    assert set().union(*seen.values()) == {int, Fraction}


def test_quadratic_extension_components_keep_the_invariant(seen):
    g = SQRT2.scalar(Fraction(1, 2)) + SQRT2.scalar(Fraction(3, 2)) * SQRT2.root()
    _run(build_Tgh(g, SQRT2.scalar(Fraction(3, 2))), 5, seen)
    assert set().union(*seen.values()) == {int, Fraction}
