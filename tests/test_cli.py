import io
import json

import pytest

from ttpkit.cli import (
    JobDocument,
    ParseError,
    emit_machine,
    parse_field,
    parse_inline_params,
    parse_machine_block,
    parse_ranges,
    run,
    scan_row,
    scan_space,
)
from ttpkit.families import ParamTuple2D, ParamTuple3D, build_C, build_T, build_Tgh
from ttpkit.homology import minimal_resolution
from ttpkit.koszulreg import gorenstein_check, koszul_check
from ttpkit.scalars import QQ, PrimeField, QuadExtField


def invoke(argv):
    buf = io.StringIO()
    status = run(argv, stdout=buf)
    return status, buf.getvalue()


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


def test_classify_elliptic_T():
    status, out = invoke([
        "classify", "--family", "T",
        "--params", "a=1,b=0,c=1,d=-1,e=0,f=1,A=1,B=2,C=0,D=0,E=-1,F=0",
    ])
    assert status == 0
    machine = parse_machine_block(out)
    assert machine["verdict"] == "elliptic"
    assert machine["g"] == "0" and machine["h"] == "1"


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
    pytest.param(["scan", "--field", "GF(2)", "--family", "T"], 2, "characteristic", id="scan-gf2-T"),
    pytest.param(["scan", "--field", "GF(2)", "--family", "Tgh"], 2, "characteristic", id="scan-gf2-Tgh"),
    pytest.param(["classify", "--field", "GF(2)", "--family", "Tgh", "--params", "g=1,h=1"], 2, "characteristic",
                 id="classify-gf2-Tgh"),
    *(
        pytest.param(["hilbert", "--family", "raw", "--alphabet", "x,y", "--relations", rel], 1, "stray '*'",
                     id=f"raw-stray-star-{rel}")
        for rel in ("x*", "*x", "x**y", "2*", "x*y*")
    ),
    pytest.param(["hilbert", "--family", "raw", "--alphabet", "x,y", "--relations", "sqrt(2)xy"], 1,
                 "quadratic extension", id="raw-root-outside-field"),
    pytest.param(["hilbert", "--family", "raw", "--alphabet", "x,y", "--relations", "1/0xy"], 1, "1/0",
                 id="raw-division-by-zero"),
    pytest.param(["koszul", "--family", "raw", "--alphabet", "x,y", "--relations", "x", "--homdeg", "2"], 2,
                 "not minimal", id="koszul-linear-relation"),
    pytest.param(["resolve", "--family", "raw", "--alphabet", "x,y", "--relations", "2"], 2,
                 "not minimal", id="resolve-constant-relation"),
])
def test_bad_input_fails_with_one_line(argv, status, names, capsys):
    got, out = invoke(argv)
    err = capsys.readouterr().err
    assert got == status
    assert out == ""
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
        res = minimal_resolution(pres, 3, 6)
        regular = gorenstein_check(pres, res.complex, 6).clean
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
    row = scan_row((3, "C", 50, {"a": 1, "b": 2, "c": 1}))
    from ttpkit.classify import classify_2d_ttp
    from ttpkit.families import ParamTuple2D

    v = classify_2d_ttp(ParamTuple2D.make(PrimeField(3), 1, 2, 1), 50)
    assert row["verdict"] == v.kind


def test_scan_worker_determinism():
    base = ["scan", "--field", "GF(3)", "--family", "C"]
    _, out1 = invoke(base + ["--workers", "1"])
    _, out2 = invoke(base + ["--workers", "2"])
    assert parse_machine_block(out1) == parse_machine_block(out2)


def test_scan_pool_is_bounded_by_cpus_and_tasks(monkeypatch):
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr("ttpkit.cli.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    base = ["scan", "--field", "GF(3)", "--family", "C"]
    _, serial = invoke(base)
    _, many = invoke(base + ["--workers", "64"])  # 27 tasks, 4 cpus
    invoke(base + ["--ranges", "a=0,b=0", "--workers", "64"])  # 3 tasks
    assert sizes == [4, 3]
    assert many == serial


def test_scan_space_T_shape():
    space = scan_space(3, "T", {})
    assert len(space) == 2 * 3**7 + 2 * 3**6
    assert all(v["f"] == 1 and v["D"] == 0 and v["F"] == 0 for v in space[:50])
    space_small = scan_space(3, "T", parse_ranges("a=0,b=0,c=0,d=1,B=0,C=0,E=1,A=0|1"))
    assert all(v["e"] in (0, 1) for v in space_small)


def test_scan_space_accepts_every_enumerated_name():
    for family, names in (("C", "abc"), ("Tgh", "gh"), ("T", "abcdeABCE")):
        space = scan_space(3, family, {name: [1] for name in names})
        assert len(space) == 1 and all(space[0][name] == 1 for name in names)


def test_parse_ranges():
    r = parse_ranges("a=0..2,b=*,c=1|2")
    assert r["a"] == [0, 1, 2] and r["b"] is None and r["c"] == [1, 2]
