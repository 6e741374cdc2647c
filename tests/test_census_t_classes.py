"""The T census decides each class of its locus once and counts its candidates.

``cli.t_class_key`` puts each candidate of the solved locus in a class in
ints mod p: an elliptic one by whether h = 0 in its normal form Tgh(g, h),
a reducible one by its case, E = 0, a + d = 0 and the f_n(a, d) scan.  One
representative per class goes through ``scan_row``, and every candidate's
row is its class's.
These tests hold each candidate's class row to its own ``scan_row``, count
the decisions and the f_n scans, and keep the characteristic-2 behaviour.
"""

import io

import pytest
from helpers import census_oracle, census_text, parse_machine_block, solved_t_locus

from ttpkit.classify import classify_3d
from ttpkit.cli import _t_values, parse_ranges, run, scan_row, t_blocks, t_class_key
from ttpkit.scalars import PrimeField
from ttpkit.sequences import fn_nonvanishing


def invoke(argv):
    buf = io.StringIO()
    status = run(argv, stdout=buf)
    return status, buf.getvalue()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_each_candidate_has_the_row_of_its_class(p):
    field = PrimeField(p)
    key = t_class_key(field, 50)
    _, candidates = solved_t_locus(p, t_blocks(p, {}))
    rows, kinds = {}, set()
    for candidate in candidates:
        own = scan_row((field, "T", 50, _t_values(*candidate)))
        first = rows.setdefault(key(*candidate), own)
        assert first == own, candidate
        verdict, case, _, asreg, certified_to = own
        kinds.add((verdict, case, asreg, certified_to))
    # both elliptic classes, h = 0 and h != 0, occur, with their two rows
    assert sum(k[0] == "elliptic" for k in rows) == 2
    assert {("elliptic", "-", "regular", "exact"), ("elliptic", "-", "not_regular", "exact")} <= kinds


@pytest.fixture
def scans(monkeypatch):
    """The (a, d) of each f_n scan, by the module that ran it."""
    import ttpkit.classify
    import ttpkit.cli

    calls = {"cli": [], "classify": []}

    def spy(module):
        def counting(a, b, bound):
            calls[module].append((a.payload, b.payload))
            return fn_nonvanishing(a, b, bound)
        return counting

    monkeypatch.setattr(ttpkit.cli, "fn_nonvanishing", spy("cli"))
    monkeypatch.setattr(ttpkit.classify, "fn_nonvanishing", spy("classify"))
    return calls


@pytest.mark.parametrize("p, ranges", [(3, ""), (5, ""), (7, "e=0,A=0"), (5, "e=1,d=1|0,b=0..2")])
def test_fn_scans_once_per_distinct_a_d_and_once_per_representative(p, ranges, scans, monkeypatch):
    decided = []

    def counting(t, bound=50):
        decided.append(t)
        return classify_3d(t, bound)

    monkeypatch.setattr("ttpkit.cli.classify_3d", counting)
    status, _ = invoke(["scan", "--field", f"GF({p})", "--family", "T"] + (["--ranges", ranges] if ranges else []))
    assert status == 0
    _, candidates = solved_t_locus(p, t_blocks(p, parse_ranges(ranges)))
    reducible = {(a, outer[1]) for a, b, c, outer in candidates if not outer[2]}
    assert sorted(scans["cli"]) == sorted(reducible)
    representatives = [t for t in decided if t.A.is_zero()]
    assert scans["classify"] == [(t.a.payload, t.d.payload) for t in representatives]


def test_every_elliptic_class_checks_g1_against_g2(monkeypatch):
    import ttpkit.classify

    seen = []
    tables = ttpkit.classify.degree3_overlap_elements

    def counting(params):
        seen.append((params.a.payload, params.B.payload, params.c.payload, params.C.payload))
        return tables(params)

    monkeypatch.setattr(ttpkit.classify, "degree3_overlap_elements", counting)
    status, out = invoke(["scan", "--field", "GF(13)", "--family", "T"])
    assert status == 0 and parse_machine_block(out)["total"] == "135150652"
    # one representative of each of the two elliptic classes, h = 0 and h != 0
    assert len(seen) == len(set(seen)) == 2


def test_two_workers_decide_the_same_classes(tmp_path):
    # --workers is accepted and ignored until the option goes: 2 must give the bytes of 1
    reports = []
    for workers in ("1", "2"):
        path = tmp_path / f"rows{workers}.tsv"
        status, out = invoke(["scan", "--field", "GF(5)", "--family", "T", "--ranges", "e=0,A=1,a=2",
                              "--workers", workers, "--out", str(path)])
        reports.append((status, out.replace(str(path), "rows.tsv"), path.read_bytes()))
    assert reports[0] == reports[1]


def test_gf2_census_with_an_elliptic_candidate_is_a_constraint_error(capsys):
    status, out = invoke(["scan", "--field", "GF(2)", "--family", "T"])
    assert status == 2 and out == ""
    assert capsys.readouterr().err == "constraint error: the elliptic criterion assumes characteristic != 2\n"


def test_gf2_census_without_the_elliptic_plane_keeps_its_counts(tmp_path):
    path = tmp_path / "rows.tsv"
    status, out = invoke(["scan", "--field", "GF(2)", "--family", "T", "--ranges", "A=0", "--out", str(path)])
    machine = parse_machine_block(out)
    assert status == 0 and machine["total"] == "192"
    assert {k: v for k, v in machine.items() if k.startswith("count_")} == {
        "count_not_ttp:-:-:-": "166",
        "count_reducible:i:koszul:not_regular": "3",
        "count_reducible:ii:koszul:not_regular": "4",
        "count_reducible:ii:koszul:regular": "4",
        "count_reducible:iv:koszul:not_regular": "3",
        "count_reducible:v:koszul:regular": "4",
        "count_reducible:vi:koszul:not_regular": "4",
        "count_reducible:vii:koszul:regular": "4",
    }
    assert path.read_text() == census_text(census_oracle(2, "T", {"A": [0]}))
