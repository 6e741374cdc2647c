import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from helpers import c_census_keys, parse_machine_block, product_space, reference_c_row

from ttpkit.cli import (
    JobDocument,
    ParseError,
    _t_outer_values,
    _t_outers,
    _t_size,
    _t_values,
    build_parser,
    emit_machine,
    parse_field,
    parse_inline_params,
    parse_ranges,
    run,
    scan_row,
    t_blocks,
)
from ttpkit.classify import classify_2d_ttp
from ttpkit.families import ParamTuple2D, ParamTuple3D, Presentation, build_C, build_T, build_Tgh
from ttpkit.freealg import Alphabet, parse_poly
from ttpkit.koszulreg import gorenstein_check, koszul_check
from ttpkit.scalars import QQ, PrimeField, QuadExtField


def invoke(argv):
    buf = io.StringIO()
    status = run(argv, stdout=buf)
    return status, buf.getvalue()


def test_run_builds_the_parser_once_per_process(monkeypatch, capsys):
    # a good job, then one whose --maxdeg argparse rejects: one parser is
    # built for both, and each call answers as a fresh process does
    jobs = [
        ["koszul", "--field", "Q", "--family", "Tgh", "--params", "g=1,h=2", "--homdeg", "3"],
        ["resolve", "--field", "Q", "--family", "Tgh", "--params", "g=1,h=2", "--maxdeg", "x"],
    ]
    init, made = argparse.ArgumentParser.__init__, []

    def spy(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    got = []
    for argv in jobs:
        try:
            status = run(argv)
        except SystemExit as exc:
            status = exc.code
        out = capsys.readouterr()
        got.append((status, out.out, out.err))
    # the two runs built as many parsers (the top one and its subparsers) as one build does
    in_runs = len(made)
    build_parser.__wrapped__()
    monkeypatch.undo()
    assert in_runs and len(made) == 2 * in_runs
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    fresh = [subprocess.run([sys.executable, "-m", "ttpkit.cli", *argv], capture_output=True, text=True, env=env) for argv in jobs]
    assert got == [(p.returncode, p.stdout, p.stderr) for p in fresh]
    assert [status for status, _, _ in got] == [0, 2]


def test_parse_field():
    assert parse_field("Q") is QQ or parse_field("Q") == QQ
    assert parse_field("GF(7)") == PrimeField(7)
    assert parse_field("Q(sqrt(2))") == QuadExtField(QQ, 2)
    assert parse_field("GF(7)(sqrt(3))") == QuadExtField(PrimeField(7), 3)
    with pytest.raises(ParseError):
        parse_field("R")


def test_classify_fibonacci_witness_cli():
    status, out = invoke(["classify", "--field", "Q", "--family", "C", "--params", "a=1,b=-1,c=1"])
    assert status == 0
    machine = parse_machine_block(out)
    assert machine["verdict"] == "not_ttp"
    assert machine["witness_kind"] == "hilbert_mismatch"


def test_classify_is_ttp_with_iso_type():
    status, out = invoke(["classify", "--field", "GF(7)", "--family", "C", "--params", "a=2,b=1,c=1"])
    machine = parse_machine_block(out)
    if machine["verdict"] == "is_ttp":
        assert "iso_kind" in machine
        assert machine["certified_to"] == "exact"
        assert status == 0


@pytest.mark.parametrize("field", ["Q", "Q(sqrt(-1))"])
def test_classify_certifies_a_periodic_orbit_over_a_field_of_characteristic_zero(field):
    # f_n(2, -1): the orbit of (1, 1) is back at (1, 1) at n = 4 with no zero on the way
    status, out = invoke(["classify", "--field", field, "--family", "C", "--params", "a=2,b=-1,c=1"])
    assert status == 0 and {"certified_to=exact", "iso_q=-1"} <= set(out.splitlines())
    assert "IsTTP(unconditional)" in out


def test_sequences_certifies_a_periodic_orbit_over_q_sqrt_2():
    # trace b + 1 = sqrt(2) and determinant a + b = 1: the orbit returns to (1, 1) at n = 8
    argv = ["sequences", "--field", "Q(sqrt(2))", "--params", "a=2-sqrt(2),b=sqrt(2)-1"]
    for bound, closed in (("7", "False"), ("8", "True"), ("50", "True")):
        status, out = invoke(argv + ["--bound", bound])
        machine = parse_machine_block(out)
        assert status == 0 and (machine["verdict"], machine["cycle_closed"]) == ("all_nonzero", closed), bound


def test_classify_elliptic_T():
    status, out = invoke([
        "classify", "--family", "T",
        "--params", "a=1,b=0,c=1,d=-1,e=0,f=1,A=1,B=2,C=0,D=0,E=-1,F=0",
    ])
    assert status == 0
    machine = parse_machine_block(out)
    assert machine["verdict"] == "elliptic"
    assert machine["g"] == "0" and machine["h"] == "1"


@pytest.mark.parametrize("field, params", [
    ("GF(7)", "f=1,e=1,d=2,E=2"),
    ("GF(32003)", "d=3,E=5,B=2,C=1,a=1,b=1"),
], ids=["e-one", "sorted-diagonal"])
def test_classify_normalized_T_has_empty_trace(field, params):
    _, out = invoke(["classify", "--field", field, "--family", "T", "--defaults-zero", "--params", params])
    machine = parse_machine_block(out)
    assert machine["trace"] == "-"
    assert "normalization trace" not in out


def test_hilbert_on_tgh():
    status, out = invoke([
        "hilbert", "--family", "Tgh", "--params", "g=0,h=1", "--maxdeg", "4",
    ])
    assert status == 0
    assert parse_machine_block(out)["dims"] == "1,3,6,10,15"


def test_gb_lists_completion_rule():
    status, out = invoke(["gb", "--family", "Tgh", "--params", "g=2,h=3", "--maxdeg", "4"])
    machine = parse_machine_block(out)
    assert machine["nrules"] == "4"
    rules = [machine[f"rule{k}"] for k in range(4)]
    assert any(r.startswith("wx^2 ->") for r in rules)


def test_raw_family_hilbert():
    status, out = invoke([
        "hilbert", "--family", "raw", "--field", "Q",
        "--alphabet", "x,y", "--relations", "xy - yx", "--maxdeg", "4",
    ])
    assert status == 0
    assert parse_machine_block(out)["dims"] == "1,2,3,4,5"


def test_mixed_degree_raw_relations_complete():
    # completion adds yx^2 in degree 3, a subword of the relation yx^3
    base = ["--field", "Q", "--family", "raw", "--alphabet", "x,y", "--relations", "y^2+x^2;yx^3", "--maxdeg", "6"]
    status, out = invoke(["gb", *base])
    assert status == 0
    rules = [v for k, v in parse_machine_block(out).items() if k.startswith("rule")]
    assert "yx^2 -> x^2y" in rules and not any(r.startswith("yx^3 ") for r in rules)
    status, out = invoke(["hilbert", *base])
    assert status == 0
    assert parse_machine_block(out)["dims"] == "1,2,3,4,4,2,2"


def test_zero_algebra_has_zero_hilbert_function():
    # the relation 2 is a unit: k<x,y>/(2) = 0, empty word included
    status, out = invoke(["hilbert", "--family", "raw", "--alphabet", "x,y", "--relations", "2", "--maxdeg", "3"])
    assert status == 0
    assert parse_machine_block(out)["dims"] == "0,0,0,0"


def test_resolve_koszul_asreg_on_tgh():
    status, out = invoke(["resolve", "--family", "Tgh", "--params", "g=1,h=2", "--homdeg", "4", "--maxdeg", "6"])
    machine = parse_machine_block(out)
    assert machine["betti"] == "0:0:1;1:1:3;2:2:3;3:3:1"
    assert machine["truncated"] == "False"

    status, out = invoke(["koszul", "--family", "Tgh", "--params", "g=1,h=0", "--homdeg", "5"])
    machine = parse_machine_block(out)
    assert machine["verdict"] == "not_koszul" and machine["witness"] == "b[3,4]=1"

    status, out = invoke([
        "asreg", "--family", "T",
        "--params", "a=1,b=0,c=1,d=-1,e=0,f=1,A=1,B=2,C=0,D=0,E=-1,F=0",
        "--evidence",
    ])
    assert status == 0
    machine = parse_machine_block(out)
    assert machine["decision"] == "True" and machine["gorenstein_clean"] == "True"


def test_resolve_counts_no_generator_above_maxdeg():
    # the letters sit in degree 1, above the bound: only b[0,0] is visible
    status, out = invoke(["resolve", "--field", "Q", "--family", "Tgh", "--params", "g=1,h=2", "--homdeg", "1", "--maxdeg", "0"])
    assert status == 0
    assert parse_machine_block(out)["betti"] == "0:0:1"


def test_yoneda_cli():
    status, out = invoke(["yoneda", "--family", "Tgh", "--params", "g=1,h=2", "--homdeg", "4"])
    assert status == 0
    assert parse_machine_block(out)["branch"] == "semisimple_dual"


def test_sequences_cli():
    status, out = invoke(["sequences", "--field", "Q", "--params", "a=1/2,b=0", "--bound", "5"])
    assert status == 0
    machine = parse_machine_block(out)
    assert machine["verdict"] == "zero_at" and machine["zero_index"] == "2"


def test_machine_block_round_trip():
    for argv in (
        ["classify", "--family", "C", "--params", "a=1,b=-1,c=1"],
        ["hilbert", "--family", "Tgh", "--params", "g=0,h=1", "--maxdeg", "3"],
        ["sequences", "--params", "a=0,b=3", "--bound", "4"],
    ):
        _, out = invoke(argv)
        machine = parse_machine_block(out)
        assert parse_machine_block(emit_machine(machine)) == machine
        # and emission is a fixed point
        assert emit_machine(parse_machine_block(emit_machine(machine))) == emit_machine(machine)


def test_job_document_validation(tmp_path):
    doc = tmp_path / "job.json"
    doc.write_text(json.dumps({"field": "Q", "family": "C", "params": {"a": 1, "b": 2, "c": 3, "zz": 4}}))

    class Args:
        job = str(doc)
        defaults_zero = False

    with pytest.raises(ParseError):
        JobDocument.load(Args())
    doc.write_text(json.dumps({"field": "Q", "family": "C", "params": {"a": 1}}))
    with pytest.raises(ParseError):
        JobDocument.load(Args())

    class Args2(Args):
        defaults_zero = True

    job = JobDocument.load(Args2())
    assert job.params["b"].is_zero() and job.params["c"].is_zero()


def test_job_document_from_file_runs(tmp_path):
    doc = tmp_path / "job.json"
    doc.write_text(json.dumps({"field": "Q", "family": "C", "params": {"a": 1, "b": -1, "c": 1}}))
    status, out = invoke(["classify", "--job", str(doc)])
    assert parse_machine_block(out)["verdict"] == "not_ttp"


def test_parse_errors_exit_one():
    status, _ = invoke(["classify", "--family", "C", "--params", "a=1,b=2"])
    assert status == 1
    status, _ = invoke(["classify", "--field", "R", "--family", "C", "--params", "a=1,b=2,c=3"])
    assert status == 1


def test_constraint_error_exit_two():
    status, _ = invoke(["yoneda", "--family", "C", "--params", "a=1,b=2,c=3"])
    assert status == 2
    status, _ = invoke(["asreg", "--family", "T", "--defaults-zero",
                        "--params", "a=1,d=5,f=1,E=1"])  # f_1 = 0: not a product
    assert status == 2


TGH = ["--family", "Tgh", "--params", "g=1,h=1"]
# degree-1 matrix [[0, 1], [1, 1]] over GF(2): x^2 + x + 1 splits only in GF(4)
GF2_GF4_EIGENVALUES = ["--field", "GF(2)", "--family", "T", "--defaults-zero", "--params", "d=0,e=1,D=1,E=1"]
MISSING_OUT = str(Path(__file__).parent / "no-such-directory" / "out.txt")


def test_classify_gf2_tuple_with_eigenvalues_in_gf4_is_unknown():
    status, out = invoke(["classify", *GF2_GF4_EIGENVALUES])
    assert status == 3
    m = parse_machine_block(out)
    assert (m["verdict"], m["witness_kind"], m["certified_to"]) == ("unknown", "alignment_obstruction", "4")
    assert "characteristic 2" in out


@pytest.mark.parametrize("argv, status, names", [
    pytest.param(["resolve", *TGH, "--homdeg", "0"], 2, "--homdeg", id="resolve-homdeg"),
    pytest.param(["koszul", *TGH, "--homdeg", "0"], 2, "--homdeg", id="koszul-homdeg"),
    pytest.param(["classify", "--family", "C", "--params", "a=2,b=3,c=1", "--bound", "0"], 2, "--bound",
                 id="classify-bound"),
    pytest.param(["sequences", "--params", "a=1,b=1", "--bound", "0"], 2, "--bound", id="sequences-bound"),
    pytest.param(["hilbert", *TGH, "--maxdeg", "-1"], 2, "--maxdeg", id="hilbert-maxdeg"),
    pytest.param(["gb", *TGH, "--maxdeg", "-1"], 2, "--maxdeg", id="gb-maxdeg"),
    pytest.param(["scan", "--family", "C", "--workers", "0"], 2, "--workers", id="scan-workers"),
    pytest.param(["scan", "--family", "C", "--ranges", "a=x"], 1, "a=x", id="scan-ranges"),
    pytest.param(["scan", "--family", "C", "--ranges", "z=1"], 1, "['z']", id="scan-ranges-unknown-name"),
    pytest.param(["scan", "--family", "T", "--ranges", "a=0,f=1"], 1, "['f']", id="scan-ranges-fixed-name"),
    *(
        pytest.param(["scan", "--family", "T", "--ranges", f"e={e},a=0,b=0,c=0,d=0"], 1, "e = 2",
                     id=f"scan-ranges-T-e-{e}")
        for e in ("2", "1|2", "*")
    ),
    pytest.param(["sequences", "--params", "a=x,b=1"], 1, "bad value for a", id="sequences-not-a-number"),
    pytest.param(["sequences", "--field", "GF(7)", "--params", "a=1/7,b=1"], 1, "bad value for a",
                 id="sequences-division-by-zero"),
    pytest.param(["sequences", "--field", "Q(sqrt(2))", "--params", "a=sqrt(3),b=1"], 1, "bad value for a",
                 id="sequences-foreign-root"),
    pytest.param(["hilbert", "--family", "raw", "--alphabet", "x,y", "--relations", "xy-yx+x"], 1,
                 "inhomogeneous", id="raw-inhomogeneous"),
    pytest.param(["hilbert", "--family", "raw", "--alphabet", "x,x", "--relations", "xx", "--maxdeg", "3"], 1,
                 "duplicate letter", id="raw-duplicate-letters"),
    pytest.param(["hilbert", "--family", "raw", "--alphabet", "x,y", "--relations", "x-x", "--maxdeg", "3"], 1,
                 "nonzero relation", id="raw-all-zero"),
    pytest.param(["classify", "--family", "C", "--field", "Q(sqrt(2))", "--params", "a=sqrt(2),b=1,c=1"], 2,
                 "second square-root extension", id="classify-nested-extension"),
    pytest.param(["classify", "--family", "C", "--field", "Q(sqrt(2/0))", "--params", "a=1,b=1,c=1"], 1,
                 "Q(sqrt(2/0))", id="field-radicand-division-by-zero"),
    pytest.param(["classify", "--family", "C", "--field", "GF(10000000000000000000000013)", "--params",
                  "a=1,b=1,c=1"], 1, "primality of 10000000000000000000000013 is not decided",
                 id="field-prime-past-primality-bound"),
    pytest.param(["classify", "--field", "Q", "--family", "C", "--params", f"a={'7' * 95},b=3,c=1"], 2,
                 "squarefree part of the radicand", id="classify-C-radicand-past-trial-bound"),
    pytest.param(["asreg", "--field", "Q", "--family", "T", "--defaults-zero", "--params",
                  f"d={10**38 + 39},e=1,D=1"], 2, "squarefree part of the radicand",
                 id="asreg-T-radicand-past-trial-bound"),
    pytest.param(["scan", "--field", "GF(2)", "--family", "T"], 2, "characteristic", id="scan-gf2-T"),
    pytest.param(["scan", "--field", "GF(2)", "--family", "Tgh"], 2, "characteristic", id="scan-gf2-Tgh"),
    pytest.param(["classify", "--field", "GF(2)", "--family", "Tgh", "--params", "g=1,h=1"], 2, "characteristic",
                 id="classify-gf2-Tgh"),
    pytest.param(["asreg", *GF2_GF4_EIGENVALUES], 2, "not a twisted tensor product: Unknown(N=4)",
                 id="asreg-gf2-eigenvalues-in-gf4"),
    *(
        pytest.param(["asreg", "--field", "Q", *job, "--evidence", "--maxdeg", maxdeg], 2,
                     "--maxdeg of at least 3", id=f"asreg-evidence-{job[1]}-maxdeg-{maxdeg}")
        for job in (["--family", "Tgh", "--params", "g=0,h=1"],
                    ["--family", "T", "--defaults-zero", "--params", "d=1,E=1"])
        for maxdeg in ("1", "2")
    ),
    *(
        pytest.param(["hilbert", "--family", "raw", "--alphabet", "x,y", "--relations", rel], 1, "stray '*'",
                     id=f"raw-stray-star-{rel}")
        for rel in ("x*", "*x", "x**y", "2*", "x*y*")
    ),
    pytest.param(["hilbert", "--family", "raw", "--alphabet", "x,y", "--relations", "sqrt(2)xy"], 1,
                 "quadratic extension", id="raw-root-outside-field"),
    pytest.param(["hilbert", "--family", "raw", "--alphabet", "x,y", "--relations", "1/0xy"], 1, "1/0",
                 id="raw-division-by-zero"),
    pytest.param(["hilbert", "--family", "raw", "--alphabet", "x,y", "--relations", "x^99999999999", "--maxdeg", "2"],
                 1, "more than 100000 letters", id="raw-huge-power"),
    pytest.param(["hilbert", "--family", "raw", "--alphabet", "x,y", "--relations", "x^", "--maxdeg", "2"], 1,
                 "missing exponent after x^", id="raw-missing-exponent"),
    pytest.param(["koszul", "--family", "raw", "--alphabet", "x,y", "--relations", "x", "--homdeg", "2"], 2,
                 "not minimal", id="koszul-linear-relation"),
    pytest.param(["resolve", "--family", "raw", "--alphabet", "x,y", "--relations", "2"], 2,
                 "not minimal", id="resolve-constant-relation"),
    pytest.param(["hilbert", *TGH, "--maxdeg", "2", "--out", MISSING_OUT], 1, "cannot write --out",
                 id="hilbert-out-missing-directory"),
    pytest.param(["scan", "--family", "C", "--out", MISSING_OUT], 1, "cannot write --out",
                 id="scan-out-missing-directory"),
    pytest.param(["scan", "--family", "C", "--ranges", "a=5..3"], 1, "a=5..3", id="scan-empty-range"),
    pytest.param(["scan", "--family", "C", "--ranges", "a=1,a=2"], 1, "a is given twice", id="scan-repeated-name"),
    pytest.param(["scan", "--family", "T", "--ranges", "e=1,E=2,d=1"], 1, "E = d when e = 1",
                 id="scan-T-e1-d-E-disjoint"),
    pytest.param(["scan", "--family", "T", "--ranges", "e=0,A=2"], 1, "A in {0, 1} when e = 0",
                 id="scan-T-e0-A-outside"),
    pytest.param(["scan", "--family", "T", "--ranges", "e=0,A=0,C=2"], 1, "C in {0, 1} when e = A = 0",
                 id="scan-T-e0-A0-C-outside"),
    pytest.param(["sequences", "--field", "GF(32003)", "--params", "a=4403,b=18651", "--bound", "100001"], 2,
                 "sequences limit of 100000", id="sequences-bound-past-the-row-limit"),
    pytest.param(["sequences", "--field", "Q", "--params", "a=1/2,b=1/3", "--bound", "100000"], 2,
                 "sequences limit of 16000000 characters", id="sequences-q-rows-past-the-text-limit"),
])
def test_bad_input_fails_with_one_line(argv, status, names, capsys):
    got, out = invoke(argv)
    err = capsys.readouterr().err
    assert got == status
    assert out == ""
    assert len(err.splitlines()) == 1 and names in err


@pytest.mark.parametrize("doc, names", [
    pytest.param([1, 2], "JSON object", id="top-level-list"),
    pytest.param({"field": 3, "family": "C", "params": {"a": 1, "b": 1, "c": 1}}, "'field'", id="field-number"),
    pytest.param({"family": ["C"], "params": {"a": 1, "b": 1, "c": 1}}, "'family'", id="family-list"),
    pytest.param({"family": "C", "params": [1]}, "'params'", id="params-list"),
    pytest.param({"family": "raw", "alphabet": ["x", "y"], "relations": [1]}, "'relations'",
                 id="relations-number"),
    pytest.param({"family": "raw", "alphabet": ["x", 2], "relations": ["xy"]}, "'alphabet'",
                 id="alphabet-number"),
    pytest.param({"family": "raw", "alphabet": "xy", "relations": "xy"}, "'alphabet'", id="alphabet-string"),
])
def test_job_document_of_the_wrong_shape_fails_with_one_line(doc, names, tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    got, out = invoke(["hilbert", "--job", str(path), "--maxdeg", "2"])
    err = capsys.readouterr().err
    assert got == 1 and out == ""
    assert len(err.splitlines()) == 1 and names in err


@pytest.mark.parametrize("argv", [
    ["--alphabet", "x", "--relations", "xx", "--homdeg", "2"],
    ["--alphabet", "x,y", "--relations", "xx;xy;yx;yy", "--homdeg", "3"],
], ids=["one-letter", "two-letters"])
def test_koszul_with_free_quadratic_dual(argv):
    status, out = invoke(["koszul", "--family", "raw", *argv])
    machine = parse_machine_block(out)
    assert status == 0
    assert machine["verdict"] == "koszul_to" and machine["convolution"] == "True"


ELLIPTIC_H0 = "a=1,b=0,c=0,d=-1,e=0,f=1,A=1,B=2,C=0,D=0,E=-1,F=0"  # g = h = 0


def test_asreg_tgh_cli():
    status, out = invoke(["asreg", "--family", "Tgh", "--params", "g=1,h=2", "--evidence", "--maxdeg", "6"])
    machine = parse_machine_block(out)
    assert status == 0
    assert machine["decision"] == "True" and machine["clause"] == "elliptic type: h != 0"
    assert machine["gorenstein_clean"] == "True"

    status, out = invoke(["asreg", "--family", "Tgh", "--params", "g=0,h=0", "--evidence", "--maxdeg", "6"])
    machine = parse_machine_block(out)
    assert status == 0
    assert machine["decision"] == "False" and "gorenstein_clean" not in machine
    _, out_t = invoke(["asreg", "--family", "T", "--params", ELLIPTIC_H0, "--evidence", "--maxdeg", "6"])
    machine_t = parse_machine_block(out_t)
    assert machine_t["type"] == "elliptic" and machine_t["decision"] == "False"
    assert machine["clause"] == machine_t["clause"]


@pytest.mark.parametrize("params", [
    ["--family", "Tgh", "--params", "g=1,h=2"],
    ["--family", "T", "--defaults-zero", "--params", "d=-1,E=-1,B=4,C=-2,a=4,b=-2"],
], ids=["Tgh", "ore"])
def test_asreg_evidence_at_the_smallest_maxdeg(params):
    # --maxdeg 3 is the top degree of the quadratic dual A^!: the check
    # still has to see A^!_4 = 0, one degree past the bound
    status, out = invoke(["asreg", "--field", "GF(32003)", *params, "--evidence", "--maxdeg", "3"])
    assert status == 0 and parse_machine_block(out)["gorenstein_clean"] == "True"


def _census_rows(tmp_path, argv):
    path = tmp_path / "rows.tsv"
    status, _ = invoke(["scan", "--field", "GF(3)", *argv, "--out", str(path)])
    assert status == 0
    header, *lines = path.read_text().splitlines()
    for line in lines:
        row = dict(zip(header.split("\t"), line.split("\t")))
        values = {k: int(v) for k, v in (kv.split(":") for kv in row["tuple"].split(","))}
        if row["verdict"] != "not_ttp":
            yield row, values


def test_census_columns_match_an_independent_oracle(tmp_path):
    """koszul and asreg columns against resolutions, without the decision table."""
    field = PrimeField(3)
    label = {True: "koszul", False: "not_koszul"}
    for row, v in _census_rows(tmp_path, ["--family", "C"]):
        pres = build_C(ParamTuple2D.make(field, **v))
        assert row["koszul"] == label[koszul_check(pres, 4).koszul], row
        regular = gorenstein_check(pres, 6).clean
        assert row["asreg"] == ("regular" if regular else "not_regular"), row
    for row, v in _census_rows(tmp_path, ["--family", "Tgh"]):
        pres = build_Tgh(field.scalar(v["g"]), field.scalar(v["h"]))
        assert row["koszul"] == label[koszul_check(pres, 4).koszul], row
    t_rows = list(_census_rows(tmp_path, ["--family", "T", "--ranges", "e=0,A=1,B=0"]))
    assert t_rows
    for row, v in t_rows:
        pres = build_T(ParamTuple3D.make(field, **v))
        assert row["koszul"] == label[koszul_check(pres, 4).koszul], row


def test_scan_c_family_partitions():
    status, out = invoke(["scan", "--field", "GF(3)", "--family", "C"])
    assert status == 0
    machine = parse_machine_block(out)
    assert machine["total"] == "27"
    total = sum(int(v) for k, v in machine.items() if k.startswith("count_"))
    assert total == 27


def test_scan_tgh_counts(tmp_path):
    out_path = tmp_path / "rows.tsv"
    status, out = invoke(["scan", "--field", "GF(3)", "--family", "Tgh", "--out", str(out_path)])
    machine = parse_machine_block(out)
    assert machine["total"] == "9"
    koszul = sum(
        int(v) for k, v in machine.items() if k.startswith("count_") and ":koszul:" in k
    )
    not_koszul = sum(
        int(v) for k, v in machine.items() if k.startswith("count_") and ":not_koszul:" in k
    )
    assert koszul == 6 and not_koszul == 3
    lines = out_path.read_text().splitlines()
    assert len(lines) == 10 and lines[0].startswith("tuple\t")


def test_scan_single_tuple_matches_classify():
    status, out = invoke([
        "scan", "--field", "GF(3)", "--family", "C", "--ranges", "a=1,b=2,c=1",
    ])
    machine = parse_machine_block(out)
    assert machine["total"] == "1"
    row = scan_row((PrimeField(3), "C", 50, {"a": 1, "b": 2, "c": 1}))
    from ttpkit.classify import classify_2d_ttp
    from ttpkit.families import ParamTuple2D

    v = classify_2d_ttp(ParamTuple2D.make(PrimeField(3), 1, 2, 1), 50)
    assert row[0] == v.kind


def test_scan_worker_determinism(tmp_path):
    for argv in (
        ["--field", "GF(7)", "--family", "C"],  # 343 tuples under at most seven class keys
        ["--field", "GF(3)", "--family", "T", "--ranges", "e=0,A=1,B=0"],
        # 1,458 tuples, of which the 84 on the locus carry reducible and elliptic rows
        ["--field", "GF(3)", "--family", "T", "--ranges", "c=0,C=0|1"],
        ["--field", "GF(7)", "--family", "Tgh"],  # 49 tuples in the classes h = 0 and h != 0
    ):
        outs, reports = [], []
        # two runs each way; --workers is accepted and ignored, so 2 gives the bytes of 1
        for workers in ("1", "2"):
            path = tmp_path / f"rows{workers}.tsv"
            status, out = invoke(["scan", *argv, "--workers", workers, "--out", str(path)])
            outs.append((status, parse_machine_block(out), path.read_bytes()))
            status, out = invoke(["scan", *argv, "--workers", workers])
            reports.append((status, parse_machine_block(out)))
        assert outs[0] == outs[1], argv
        # the report is counted from the classes, so it is the same without --out
        assert reports == [outs[0][:2]] * 2, argv


# A fresh interpreter imports the CLI and builds its parser, then runs a GF(3)
# C census with --workers 2 and with --workers 1.
START_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
import ttpkit.cli
ttpkit.cli.build_parser()
heavy = ("dataclasses", "inspect", "multiprocessing", "concurrent.futures.process", "json")
at_start = [m for m in heavy if m in sys.modules]
import io, json
outs, pool_loaded = [], []
for workers in ("2", "1"):
    buf = io.StringIO()
    status = ttpkit.cli.run(["scan", "--field", "GF(3)", "--family", "C", "--workers", workers], stdout=buf)
    outs.append((status, buf.getvalue()))
    pool_loaded.append("concurrent.futures.process" in sys.modules)
print(json.dumps({"at_start": at_start, "pool_loaded": pool_loaded, "outs": outs}))
"""


def test_cli_start_loads_neither_the_pool_nor_dataclasses():
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-I", "-c", START_PROBE, src], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert probe["at_start"] == []
    # every census runs in process, whatever --workers says
    assert probe["pool_loaded"] == [False, False]
    (pooled_status, pooled), (serial_status, serial) = probe["outs"]
    assert pooled_status == serial_status == 0
    assert parse_machine_block(pooled) == parse_machine_block(serial)
    assert parse_machine_block(serial)["total"] == "27"


def test_scan_decides_each_c_class_before_it_writes_a_row(monkeypatch, tmp_path):
    classified = []
    written = []

    def counting_row(task):
        classified.append(task[3])
        return scan_row(task)

    class CheckingFile(io.StringIO):
        def write(self, text):
            written.append(len(classified))  # classes decided when this text is written
            return super().write(text)

    @contextlib.contextmanager
    def checking_out(path):
        yield CheckingFile()

    monkeypatch.setattr("ttpkit.cli.scan_row", counting_row)
    monkeypatch.setattr("ttpkit.cli.open_out", checking_out)
    status, out = invoke(["scan", "--field", "GF(3)", "--family", "C", "--out", "rows.tsv"])
    assert status == 0 and "total=27" in out
    # one task per class key, each a canonical class (ac, b, 1), (1, b, 0) or (0, b, 0), none twice
    assert len(classified) == len(c_census_keys(3, {}))
    assert len({tuple(v.items()) for v in classified}) == len(classified)
    assert all(v["c"] == 1 or v["c"] == 0 and v["a"] in (0, 1) for v in classified)
    # the header, then every one of the 27 tuple lines after all classes are decided
    assert written == [0] + [len(classified)] * 27


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_scan_class_rows_equal_tuple_rows(p, tmp_path):
    path = tmp_path / "rows.tsv"
    status, _ = invoke(["scan", "--field", f"GF({p})", "--family", "C", "--out", str(path)])
    header, *lines = path.read_text().splitlines()
    assert status == 0 and len(lines) == p**3
    for line, values in zip(lines, product_space(p, "C", {})):
        assert dict(zip(header.split("\t"), line.split("\t"))) == reference_c_row(p, values)


def test_scan_classifies_each_c_class_once_per_scan(monkeypatch):
    calls = []

    def counting_classify(p, bound=50):
        calls.append(p)
        return classify_2d_ttp(p, bound)

    monkeypatch.setattr("ttpkit.cli.classify_2d_ttp", counting_classify)
    for _ in range(2):  # nothing carries over from one run to the next
        calls.clear()
        status, out = invoke(["scan", "--field", "GF(7)", "--family", "C", "--workers", "1"])
        assert status == 0 and "total=343" in out
        assert len(calls) == len(c_census_keys(7, {}))  # one per class key


@pytest.mark.parametrize("argv, notes", [
    (["--field", "GF(13)", "--family", "C"], ["note: 96 tuples certified only to the scan bound N=50"]),
    (["--field", "GF(7)", "--family", "C", "--ranges", "a=2,b=3,c=1", "--bound", "4"],
     ["note: 1 tuples certified only to the scan bound N=4"]),
    (["--field", "GF(7)", "--family", "C"], []),
])
def test_scan_notes_rows_certified_to_the_bound(argv, notes):
    status, out = invoke(["scan", *argv])
    assert status == 0
    assert [line for line in out.splitlines() if "certified only to the scan bound" in line] == notes


def test_failed_scan_leaves_out_as_it_was(tmp_path, capsys):
    out_path = tmp_path / "rows.tsv"
    for family in ("T", "Tgh"):
        argv = ["scan", "--field", "GF(2)", "--family", family, "--out", str(out_path)]
        status, _ = invoke(argv)
        assert status == 2 and "characteristic" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        out_path.write_bytes(b"tuple\tverdict\nkept\n")
        status, _ = invoke(argv)
        assert status == 2
        assert list(tmp_path.iterdir()) == [out_path] and out_path.read_bytes() == b"tuple\tverdict\nkept\n"
        out_path.unlink()


def test_scan_out_follows_symlink_and_keeps_mode(tmp_path):
    target = tmp_path / "rows.tsv"
    target.write_text("old\n")
    target.chmod(0o640)
    link = tmp_path / "link.tsv"
    link.symlink_to(target)
    status, _ = invoke(["scan", "--field", "GF(3)", "--family", "C", "--out", str(link)])
    assert status == 0 and link.is_symlink()
    assert len(target.read_text().splitlines()) == 28 and (target.stat().st_mode & 0o777) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.tsv", "rows.tsv"]


def test_scan_refuses_a_listing_past_the_row_limit(monkeypatch, tmp_path, capsys):
    def no_row(task):
        raise AssertionError("a refused listing decides nothing")

    monkeypatch.setattr("ttpkit.cli.scan_row", no_row)
    path = tmp_path / "rows.tsv"
    status, out = invoke(["scan", "--field", "GF(17)", "--family", "T", "--max-prime", "17", "--out", str(path)])
    assert status == 2 and out == "" and list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err
    assert err == "constraint error: --out would list 868952484 rows, more than the limit of 200000000\n"


@pytest.mark.parametrize("limit, status", [(26, 2), (27, 0)])
def test_scan_lists_up_to_the_row_limit(limit, status, monkeypatch, tmp_path):
    monkeypatch.setattr("ttpkit.cli.LISTING_LIMIT", limit)
    path = tmp_path / "rows.tsv"
    assert invoke(["scan", "--field", "GF(3)", "--family", "C", "--out", str(path)])[0] == status
    assert path.exists() == (status == 0)
    if status == 0:
        assert len(path.read_text().splitlines()) == 28
    # the report alone is never limited
    got, out = invoke(["scan", "--field", "GF(3)", "--family", "C"])
    assert got == 0 and "total=27" in out


def test_scan_out_to_devnull():
    status, out = invoke(["scan", "--field", "GF(3)", "--family", "C", "--out", os.devnull])
    assert status == 0 and "total=27" in out


def test_scan_out_overwrites_stale_temp_file(tmp_path):
    # a run killed outright leaves its temporary file; a later run with the same pid must still write
    out_path = tmp_path / "rows.tsv"
    (tmp_path / f".rows.tsv.{os.getpid()}.tmp").write_text("left behind\n")
    status, _ = invoke(["scan", "--field", "GF(3)", "--family", "C", "--out", str(out_path)])
    assert status == 0 and len(out_path.read_text().splitlines()) == 28
    assert [p.name for p in tmp_path.iterdir()] == ["rows.tsv"]


def t_space(blocks):
    """The values of every tuple of census T blocks, in scan order."""
    return [_t_values(a, b, c, outer) for block in blocks
            for a, b, c in product(*block.abc) for outer in _t_outers(block)]


def test_scan_space_T_shape():
    blocks = t_blocks(3, {})
    space = t_space(blocks)
    assert len(space) == sum(map(_t_size, blocks)) == 2 * 3**7 + 2 * 3**6
    outers = [_t_outer_values(outer) for block in blocks for outer in _t_outers(block)]
    assert all(v["f"] == 1 and v["D"] == 0 and v["F"] == 0 for v in outers)
    space_small = t_space(t_blocks(3, parse_ranges("a=0,b=0,c=0,d=1,B=0,C=0,E=1,A=0|1")))
    assert all(v["e"] in (0, 1) for v in space_small)


@pytest.mark.parametrize("family, ranges, total", [
    ("C", "a=0|3", 9),
    ("C", "a=1|4|7,b=2|-1", 3),
    ("Tgh", "g=0..5", 9),
    ("T", "e=1|4,a=0,b=0,c=0,d=0", 27),
    ("C", "a=0..1000000000000", 27),
])
def test_scan_counts_each_residue_once(family, ranges, total):
    status, out = invoke(["scan", "--field", "GF(3)", "--family", family, "--ranges", ranges])
    assert status == 0 and f"total={total}" in out


@pytest.mark.parametrize("ranges, total, holds", [
    # e = 1 fixes E = d, so d runs over the residues allowed for both
    ("e=1,E=2,d=1|2", 3**6, lambda v: v["d"] == v["E"] == 2),
    ("e=1,E=0|1", 2 * 3**6, lambda v: v["d"] == v["E"] in (0, 1)),
    # e = 0 keeps A in {0, 1}, and C in {0, 1} when A = 0
    ("e=0,A=0|2", 2 * 3**6, lambda v: v["A"] == 0 and v["C"] in (0, 1)),
    ("e=0,A=0,C=1|2", 3**6, lambda v: v["A"] == 0 and v["C"] == 1),
    ("e=0,C=2", 3**6, lambda v: v["A"] == 1 and v["C"] == 2),
    # with both branches, a range that empties one leaves the other
    ("A=2,d=1,E=1", 3**5, lambda v: v["e"] == 1 and v["A"] == 2 and v["d"] == v["E"] == 1),
])
def test_scan_space_T_ranges_keep_the_side_conditions(ranges, total, holds):
    blocks = t_blocks(3, parse_ranges(ranges))
    space = t_space(blocks)
    assert len(space) == sum(map(_t_size, blocks)) == total and all(map(holds, space))
    status, out = invoke(["scan", "--field", "GF(3)", "--family", "T", "--ranges", ranges])
    assert status == 0 and f"total={total}" in out


# SHA-256 of the --out rows of the full GF(3) T census, as the census wrote
# them when it evaluated both obstructions in full for every tuple
GF3_T_CENSUS_SHA256 = "e052bb30251584a9c01638b9f1508cade2345315556d103254f3c44637648ee4"


def test_gf3_t_census_rows_are_pinned(tmp_path):
    path = tmp_path / "rows.tsv"
    status, _ = invoke(["scan", "--field", "GF(3)", "--family", "T", "--out", str(path)])
    assert status == 0 and hashlib.sha256(path.read_bytes()).hexdigest() == GF3_T_CENSUS_SHA256


# The [machine] counts and bounded-row note of the full GF(7), GF(11) and
# GF(13) T censuses, and the SHA-256 of the GF(7) --out rows, as the census
# wrote them when it solved every outer tuple and classified every candidate
T_CENSUS_COUNTS = {
    7: {
        "count_elliptic:-:koszul:regular": "2058",
        "count_elliptic:-:not_koszul:not_regular": "343",
        "count_not_ttp:-:-:-": "1877992",
        "count_reducible:i:koszul:not_regular": "33",
        "count_reducible:ii:koszul:not_regular": "294",
        "count_reducible:ii:koszul:regular": "882",
        "count_reducible:iii:koszul:regular": "294",
        "count_reducible:iv:koszul:not_regular": "33",
        "count_reducible:v:koszul:regular": "294",
        "count_reducible:vi:koszul:not_regular": "14",
        "count_reducible:vii:koszul:not_regular": "49",
        "count_reducible:vii:koszul:regular": "98",
        "total": "1882384",
    },
    11: {
        "count_elliptic:-:koszul:regular": "13310",
        "count_elliptic:-:not_koszul:not_regular": "1331",
        "count_not_ttp:-:-:-": "42492140",
        "count_reducible:i:koszul:not_regular": "67",
        "count_reducible:ii:koszul:not_regular": "1210",
        "count_reducible:ii:koszul:regular": "6292",
        "count_reducible:iii:koszul:regular": "1210",
        "count_reducible:iv:koszul:not_regular": "67",
        "count_reducible:v:koszul:regular": "1210",
        "count_reducible:vi:koszul:not_regular": "22",
        "count_reducible:vii:koszul:not_regular": "121",
        "count_reducible:vii:koszul:regular": "484",
        "total": "42517464",
    },
    13: {
        "count_elliptic:-:koszul:regular": "26364",
        "count_elliptic:-:not_koszul:not_regular": "2197",
        "count_not_ttp:-:-:-": "135103438",
        "count_reducible:i:koszul:not_regular": "103",
        "count_reducible:ii:koszul:not_regular": "2028",
        "count_reducible:ii:koszul:regular": "11323",
        "count_reducible:iii:koszul:regular": "2028",
        "count_reducible:iv:koszul:not_regular": "103",
        "count_reducible:v:koszul:regular": "2028",
        "count_reducible:vi:koszul:not_regular": "26",
        "count_reducible:vii:koszul:not_regular": "169",
        "count_reducible:vii:koszul:regular": "845",
        "total": "135150652",
    },
}
T_CENSUS_BOUNDED = {7: 0, 11: 484, 13: 1352}
GF7_T_CENSUS_SHA256 = "8e0d81ce0d5edd19f2ea4329de1090c251164e6cf1a3c2dd6fd54875edc286a4"


@pytest.mark.parametrize("p", sorted(T_CENSUS_COUNTS))
def test_t_census_counts_are_pinned(p):
    status, out = invoke(["scan", "--field", f"GF({p})", "--family", "T"])
    machine = parse_machine_block(out)
    assert status == 0
    assert {k: v for k, v in machine.items() if k == "total" or k.startswith("count_")} == T_CENSUS_COUNTS[p]
    notes = [line for line in out.splitlines() if "certified only to the scan bound" in line]
    bounded = T_CENSUS_BOUNDED[p]
    assert notes == ([f"note: {bounded} tuples certified only to the scan bound N=50"] if bounded else [])


def test_gf7_t_census_rows_are_pinned(monkeypatch):
    # 1,882,384 lines, 128 MB: hashed as they are written instead of stored
    sha = hashlib.sha256()

    class HashingFile:
        def write(self, text):
            sha.update(text.encode())

    @contextlib.contextmanager
    def hashing_out(path):
        yield HashingFile()

    monkeypatch.setattr("ttpkit.cli.open_out", hashing_out)
    status, _ = invoke(["scan", "--field", "GF(7)", "--family", "T", "--out", "rows.tsv"])
    assert status == 0 and sha.hexdigest() == GF7_T_CENSUS_SHA256


def test_t_census_reads_g1_on_elliptic_rows_only(monkeypatch):
    import ttpkit.classify

    overlaps, fields = [], []
    full_tables = ttpkit.classify.degree3_overlap_elements
    field_init = PrimeField.__init__

    def counting_tables(params):
        overlaps.append(params)
        return full_tables(params)

    def counting_init(self, p):
        fields.append(p)
        field_init(self, p)

    monkeypatch.setattr(ttpkit.classify, "degree3_overlap_elements", counting_tables)
    monkeypatch.setattr(PrimeField, "__init__", counting_init)
    status, out = invoke(["scan", "--field", "GF(3)", "--family", "T", "--workers", "1"])
    machine = parse_machine_block(out)
    elliptic = sum(int(n) for key, n in machine.items() if key.startswith("count_elliptic:"))
    assert status == 0 and machine["total"] == "5832" and elliptic == 81
    assert len(overlaps) == 2  # one per elliptic class: h = 0 and h != 0
    assert fields == [3]


def test_scan_space_accepts_every_enumerated_name(tmp_path):
    path = tmp_path / "rows.tsv"
    for family, names in (("C", "abc"), ("Tgh", "gh"), ("T", "abcdeABCE")):
        ranges = ",".join(f"{name}=1" for name in names)
        status, out = invoke(["scan", "--field", "GF(3)", "--family", family, "--ranges", ranges, "--out", str(path)])
        _, line = path.read_text().splitlines()
        values = dict(kv.split(":") for kv in line.split("\t")[0].split(","))
        assert status == 0 and "total=1" in out and all(values[name] == "1" for name in names), family


def test_parse_ranges():
    r = parse_ranges("a=0..2,b=*,c=1|2")
    assert list(r["a"]) == [0, 1, 2] and r["b"] is None and r["c"] == [1, 2]


# gb --maxdeg 6 for the presentations of the pinned resolutions in
# test_homology.py that the command line can spell (all but the weighted
# alphabet, checked below), an elliptic and an Ore T tuple, and a C tuple
# over GF(101); SHA-256 of each exit status and stdout, concatenated, as
# completion printed them when S-differences were reduced by rewriting
# the leftmost redex
GB_PINNED = [
    ["--field", "Q", "--family", "Tgh", "--params", "g=2,h=3"],
    ["--field", "Q", "--family", "Tgh", "--params", "g=4,h=0"],
    ["--field", "GF(32003)", "--family", "Tgh", "--params", "g=2,h=3"],
    ["--field", "GF(32003)", "--family", "Tgh", "--params", "g=4,h=0"],
    ["--field", "Q", "--family", "T", "--defaults-zero", "--params", "d=1,E=1,a=2,b=3,B=4"],
    ["--field", "Q", "--family", "C", "--params", "a=1,b=-1,c=1"],
    ["--field", "Q", "--family", "C", "--params", "a=0,b=2,c=0"],
    ["--field", "Q", "--family", "raw", "--alphabet", "x,y", "--relations", "xyxy"],
    ["--field", "Q", "--family", "T", "--defaults-zero", "--params", "a=2,b=-2,c=3,d=-1,f=1,A=1,B=0,C=5,E=-1"],
    ["--field", "Q", "--family", "T", "--defaults-zero", "--params", "d=-2,E=-1,B=1,C=1,a=3/2,b=3/2"],
    ["--field", "GF(101)", "--family", "C", "--params", "a=2,b=3,c=1"],
]
GB_SHA256 = "f0dbf9a3deca848c4bf469fed8a0280c24eed7704ecc15835b45737754068927"


def test_gb_output_is_pinned():
    parts = []
    for case in GB_PINNED:
        status, out = invoke(["gb", *case, "--maxdeg", "6"])
        parts.append(f"{status}\n{out}")
    assert hashlib.sha256("".join(parts).encode()).hexdigest() == GB_SHA256
    weighted = Alphabet(["x", "y"], (1, 2))
    pres = Presentation(weighted, QQ, [parse_poly(weighted, QQ, r) for r in ("xy - yx", "x^4 - y^2")])
    assert [repr(rule) for rule in pres.completed(6).rules] == ["yx -> xy", "y^2 -> x^4"]


# SHA-256 of the stdout of the two largest resolution cases: Tgh(1,2) to
# internal degree 16, and the Gorenstein evidence of an Ore T tuple with
# proper fractions over Q to degree 10
@pytest.mark.parametrize("argv, digest", [
    (["resolve", "--field", "Q", "--family", "Tgh", "--params", "g=1,h=2", "--homdeg", "6", "--maxdeg", "16"],
     "9216025caa5ad20ecb7b2dfe359b6488bda1ca892d876afb71ac61c7656c7d30"),
    (["asreg", "--field", "Q", "--family", "T", "--defaults-zero", "--params", "d=-2,E=-1,B=1,C=1,a=3/2,b=3/2",
      "--evidence", "--maxdeg", "10"],
     "f43f2f97587bfed76151bf0104492dbac7741ede4aa9e871ac2ae1b14fe84e81"),
], ids=["resolve-Tgh-maxdeg-16", "asreg-evidence-ore-Q-maxdeg-10"])
def test_large_resolution_stdout_is_pinned(argv, digest):
    status, out = invoke(argv)
    assert status == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
