"""A fixed sample of the benchmark's golden records, replayed through the CLI.

perfbench/golden/*.json maps every benchmark job (its argv joined by
spaces) to the exit status and the [machine] block recorded for it.  The
benchmark compares against all of them; this sample gives the test suite
the same guard on bit-stable output at a cost of a few seconds.  It takes
at least one record of each subcommand in each file and only jobs that
run in well under a second.
"""

import io
import json
from pathlib import Path

import pytest

from ttpkit.cli import run

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"

SAMPLE = {
    "elliptic-q": [
        "koszul --field Q --family Tgh --params g=-3,h=5 --homdeg 6",
        "koszul --field Q --family Tgh --params g=2,h=0 --homdeg 6",
        "resolve --field Q --family Tgh --params g=-3,h=5 --homdeg 6 --maxdeg 8",
        "resolve --field Q --family Tgh --params g=2,h=0 --homdeg 6 --maxdeg 8",
        "yoneda --field Q --family Tgh --params g=4,h=0 --homdeg 6",
    ],
    "regularity-gf": [
        "asreg --field GF(32003) --family T --defaults-zero --params d=-1,E=-1,B=4,C=-2,a=4,b=-2 --evidence --maxdeg 6",
        "asreg --field GF(32003) --family T --defaults-zero --params d=1,E=0,B=-1 --evidence --maxdeg 6",
        "asreg --field GF(32003) --family T --defaults-zero --params f=1,a=2,d=3,E=1,b=-1,c=5 --evidence --maxdeg 6",
    ],
    "census-gf": [
        "scan --field GF(11) --family C --workers 1",
        "scan --field GF(3) --family T --workers 1 --ranges e=0,A=1,B=0",
        "scan --field GF(5) --family T --workers 1 --ranges e=1,a=4,b=4,c=1",
    ],
}

CASES = [(workload, key) for workload, keys in SAMPLE.items() for key in keys]


def _golden(workload):
    return json.loads((GOLDEN / f"{workload}.json").read_text())


def _machine_block(text):
    start, end = text.find("[machine]"), text.find("[/machine]")
    return text[start : end + len("[/machine]")] if 0 <= start < end else None


def test_sample_covers_every_subcommand():
    assert len(CASES) <= 12
    for workload, keys in SAMPLE.items():
        assert {k.split(" ")[0] for k in keys} == {k.split(" ")[0] for k in _golden(workload)}


@pytest.mark.parametrize("workload, key", CASES, ids=[f"{w}-{k.split(' ')[0]}-{i}" for i, (w, k) in enumerate(CASES)])
def test_golden_record_reproduced(workload, key):
    buf = io.StringIO()
    status = run(key.split(" "), stdout=buf)
    assert [status, _machine_block(buf.getvalue())] == _golden(workload)[key]
