"""The T census classifies only the tuples on its TTP locus.

``classify.ttp_locus`` solves a whole block of the normalized f = 1 space:
equations 1, 2 and 4 and the elliptic plane choose the outer tuples
(e, d, A, B, C, E) that can carry a candidate, and equations 3, 5 and 6
their (a, b, c).  It yields only those outer tuples, each with its
candidates, and every other tuple is a not_ttp row.  These tests hold the
census to the per-tuple fold of ``helpers.census_oracle`` and the solved
locus to ``helpers.reference_t_locus``, which solves every outer tuple with
the former per-outer solver, and pin the locus itself: a residual or an
elliptic condition dropped from the solver only adds candidates or solved
outer tuples, which the counts catch.
"""

import io
import os
import random
from functools import cache
from itertools import product

import pytest
from helpers import (
    census_counts,
    census_oracle,
    census_text,
    parse_machine_block,
    reference_t_blocks,
    reference_t_locus,
    reference_t_space,
    solved_t_locus,
)

from ttpkit.classify import _ELLIPTIC_CONSTRAINTS, classify_3d, reducible_case_id, reducible_system_residuals, ttp_locus
from ttpkit.cli import ParseError, _t_outers, _t_values, parse_ranges, run, t_blocks
from ttpkit.families import ParamTuple3D
from ttpkit.scalars import PrimeField
from ttpkit.sequences import efgh


def invoke(argv):
    buf = io.StringIO()
    status = run(argv, stdout=buf)
    return status, buf.getvalue()


@cache
def oracle(p, ranges):
    return census_oracle(p, "T", parse_ranges(ranges))


def counts_of(out):
    machine = parse_machine_block(out)
    return {k: v for k, v in machine.items() if k == "total" or k.startswith("count_")}


def check_census(tmp_path, p, ranges=""):
    """The T census over GF(p), with and without --out, against the per-tuple oracle."""
    argv = ["scan", "--field", f"GF({p})", "--family", "T"] + (["--ranges", ranges] if ranges else [])
    path = tmp_path / "rows.tsv"
    status, listed = invoke(argv + ["--out", str(path)])
    assert status == 0 and path.read_text() == census_text(oracle(p, ranges)), ranges
    status, out = invoke(argv)
    assert status == 0 and counts_of(out) == census_counts(oracle(p, ranges)), ranges
    assert listed == out.replace("[machine]", f"rows written to {path}\n[machine]", 1)


@pytest.mark.parametrize("p", [3, 5])
def test_t_census_equals_the_per_tuple_oracle(p, tmp_path):
    check_census(tmp_path, p)


def test_gf5_tuples_off_the_locus_are_not_ttp():
    _, candidates = solved_t_locus(5, t_blocks(5, {}))
    on_locus = {tuple(_t_values(*candidate).items()) for candidate in candidates}
    off = [row for values, row in zip(reference_t_space(5, {}), oracle(5, ""))
           if tuple(values.items()) not in on_locus]
    assert len(off) == 187500 - 1702
    assert {row[1] for row in off} == {"not_ttp"}


def check_locus(p, ranges):
    """The solved locus of ranges over GF(p) has the size and candidates of the per-outer walk, in its order."""
    assert solved_t_locus(p, t_blocks(p, parse_ranges(ranges))) == reference_t_locus(p, reference_t_blocks(p, parse_ranges(ranges)))


@pytest.mark.parametrize("p, ranges", [(3, ""), (5, ""), (7, ""), (2, "A=0")])
def test_solved_locus_equals_the_per_outer_walk(p, ranges):
    check_locus(p, ranges)


@pytest.mark.parametrize("p, out, calls", [
    (3, [], 14),
    (3, ["--out", os.devnull], 14),  # listing every row classifies no more tuples
    (5, [], 14),
])
def test_t_census_classifies_the_locus_only(p, out, calls, monkeypatch):
    # one representative per class of the 270 and 1,702 candidates: 2 elliptic classes (h = 0 and h != 0)
    # and 12 reducible ones
    seen = []

    def counting(t, bound=50):
        seen.append(t)
        return classify_3d(t, bound)

    monkeypatch.setattr("ttpkit.cli.classify_3d", counting)
    status, _ = invoke(["scan", "--field", f"GF({p})", "--family", "T", *out])
    assert status == 0 and len(seen) == calls


@pytest.fixture
def solved(monkeypatch):
    """The outer tuples that ttp_locus yields to the census, in order."""
    import ttpkit.classify

    calls = []

    def counting(p, e, axes, abc):
        for outer, candidates in ttpkit.classify.ttp_locus(p, e, axes, abc):
            calls.append(outer)
            yield outer, candidates

    monkeypatch.setattr("ttpkit.cli.ttp_locus", counting)
    return calls


@pytest.mark.parametrize("p, calls", [(3, 42), (5, 110), (7, 210), (13, 702)])
def test_t_census_solves_only_the_outer_tuples_that_can_carry_a_candidate(p, calls, solved):
    # 4p^2 + 2p: p^2 on the elliptic plane, 2p^2 at e = A = E = 0 and p^2 at
    # e = 1, d = E = 0, then 2p - 1 at e = A = 0, E != 0 and one at e = 1, d = E = 1
    status, out = invoke(["scan", "--field", f"GF({p})", "--family", "T"])
    assert status == 0 and len(solved) == calls == 4 * p * p + 2 * p
    assert len(set(solved)) == calls


def test_locus_at_A_0_is_the_common_zeros_of_the_reducible_system():
    field = PrimeField(5)
    abc = [list(range(5))] * 3
    outers = [outer for block in t_blocks(5, {}) for outer in _t_outers(block) if outer[2] == 0]
    assert len(outers) == 5**3 * 2 + 5**3  # e = 0 with C in {0, 1}, and e = 1 with E = d
    for e, d, A, B, C, E in outers:
        zeros = [
            (a, b, c) for a, b, c in product(range(5), repeat=3)
            if all(v.is_zero() for _, v in reducible_system_residuals(
                ParamTuple3D.make(field, a=a, b=b, c=c, d=d, e=e, f=1, A=A, B=B, C=C, E=E)))
        ]
        assert list(ttp_locus(5, e, ([d], [A], [B], [C], [E]), abc)) == ([((e, d, A, B, C, E), zeros)] if zeros else [])


def test_locus_at_A_nonzero_is_the_elliptic_plane():
    # A runs over every nonzero value, not only the normalized A = 1
    field = PrimeField(3)
    abc = [list(range(3))] * 3
    for e, d, A, B, C, E in product((0, 1), range(3), (1, 2), range(3), range(3), range(3)):
        plane = []
        for a, b, c in product(range(3), repeat=3):
            q = ParamTuple3D.make(field, a=a, b=b, c=c, d=d, e=e, f=1, A=A, B=B, C=C, E=E)
            if all(holds(q) for _, holds in _ELLIPTIC_CONSTRAINTS):
                plane.append((a, b, c))
        assert list(ttp_locus(3, e, ([d], [A], [B], [C], [E]), abc)) == ([((e, d, A, B, C, E), plane)] if plane else [])


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_caseless_locus_tuples_are_decided_by_f1_first(p):
    # the locus keeps p - 3 outer tuples at e = A = 0, d = -1 that no reducible
    # case names (B = 1 - E, C = 0, E not in {0, 1, -1}); f_1(a, d) = 1 - a
    # vanishes on each of their candidates, and the census tests f_n before it
    # reads the case table, so a locus change that lets another one through
    # would end the census in the AssertionError of reducible_case_id
    field = PrimeField(p)
    caseless = []
    for block in t_blocks(p, {}):
        for outer, candidates in ttp_locus(p, block.e, block.axes, block.abc):
            e, d, A, B, C, E = outer
            if e or A or d != p - 1:
                continue
            try:
                reducible_case_id(ParamTuple3D.make(field, d=d, e=e, f=1, A=A, B=B, C=C, E=E))
            except AssertionError:
                caseless.append(outer)
                assert all(efgh(field.scalar(a), field.scalar(d), 1).f.is_zero() for a, _, _ in candidates), outer
    assert len(caseless) == p - 3


def _draw(rng, p, fixed):
    """fixed, plus one random range for each other name; redrawn until the space is small."""
    while True:
        ranges = dict(fixed)
        for name in "a b c d A B C E".split():
            if name in ranges:
                continue
            v = rng.randrange(p)
            ranges[name] = rng.choice([
                str(v), str(v + p), f"{v}|{rng.randrange(-p, p)}", f"{v}..{v + rng.randrange(3)}", "*",
            ])
        text = ",".join(f"{k}={v}" for k, v in ranges.items())
        try:
            size, _ = solved_t_locus(p, t_blocks(p, parse_ranges(text)))
        except ParseError:  # a side condition that the ranges leave empty
            continue
        if size <= 600:
            return text


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("fixed", [{}, {"e": "0"}, {"e": "1"}, {"e": "0", "A": "0"}])
def test_t_census_under_ranges_equals_the_oracle(p, fixed, tmp_path):
    rng = random.Random(p * 100 + len(fixed) * 10 + int(fixed.get("e", 2)))
    for _ in range(3):
        ranges = _draw(rng, p, fixed)
        check_locus(p, ranges)
        check_census(tmp_path, p, ranges)


@pytest.mark.parametrize("ranges", ["e=1,A=1|2,a=0,b=1", "e=0,A=1,d=0,a=2", "e=0,A=0,E=1,B=1,C=1,c=2"])
def test_ranges_off_the_locus_classify_nothing(ranges, monkeypatch, tmp_path):
    # e = 1 with A != 0, d != -1 with A = 1, and residual 6 that no c in range solves
    _, candidates = solved_t_locus(5, t_blocks(5, parse_ranges(ranges)))
    assert candidates == []
    oracle(5, ranges)  # the oracle classifies every tuple, so it runs before the spy
    seen = []
    monkeypatch.setattr("ttpkit.cli.classify_3d", lambda t, bound=50: seen.append(t))
    check_census(tmp_path, 5, ranges)
    assert seen == []


@pytest.mark.parametrize("ranges, why", [
    ("e=1,d=1,E=2", "E = d when e = 1"),
    ("e=0,A=2|3", "A in {0, 1} when e = 0"),
    ("A=0,C=2,d=1,E=2", "C in {0, 1} when e = A = 0 and E = d when e = 1"),
])
def test_ranges_that_leave_no_tuple_keep_their_parse_error(ranges, why, capsys):
    status, out = invoke(["scan", "--field", "GF(7)", "--family", "T", "--ranges", ranges])
    assert status == 1 and out == ""
    assert capsys.readouterr().err == (
        f"parse error: --ranges leave no tuple of the normalized T space, which has {why}\n"
    )
