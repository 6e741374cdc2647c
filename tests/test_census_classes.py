"""The C and Tgh censuses decide each class once and count its tuples.

A C row depends only on the canonical class C(ac,b,1), C(1,b,0) or
C(0,b,0) of its tuple, and that class's row only on its
``cli.c_class_key``: whether f_n(ac, b) vanishes, whether the scan is
exact or bounded, and the graded type of ``classify.iso_branch_2d``.
The C census finds the class heads in ints mod p, and
``cli.census_rows`` decides one canonical class per key through
``scan_row`` and folds it with the number of tuples its key stands for;
a Tgh census has two classes, h = 0 and h != 0.  These tests hold the
report, the --out rows and the notes to the per-tuple fold of
``helpers.census_oracle``, hold ``scan_row`` of every canonical class up
to GF(13), and of seeded ones at GF(53) and GF(101), to that of its key's
first class, and count the decisions: one ``classify_2d_ttp`` call per C
key, one ``scan_row`` call per Tgh key, and a bounded handful of
``scan_row`` calls for a full census at any p.  The --out rows of the full
GF(11) and GF(13) cubes are pinned by SHA-256, so a change to the class
decision cannot move the oracle and the census together; so are the
[machine] blocks and bounded-row notes of full GF(53) C and of full
GF(101) C at bounds 50 and 5, where many orbits outlast the bound.
"""

import hashlib
import io
import random
from functools import cache

import pytest
from helpers import c_census_keys, census_oracle, census_report, census_text, product_space

from ttpkit.classify import canonical_2d, classify_2d_ttp
from ttpkit.cli import c_class_key, parse_ranges, run, scan_row
from ttpkit.families import ParamTuple2D
from ttpkit.scalars import PrimeField


def invoke(argv):
    buf = io.StringIO()
    status = run(argv, stdout=buf)
    return status, buf.getvalue()


def oracle(p, ranges, bound, family="C"):
    return _oracle(p, ranges, bound, family)  # one cache entry however family is passed


@cache
def _oracle(p, ranges, bound, family):
    return census_oracle(p, family, parse_ranges(ranges), bound)


def check_census(tmp_path, p, ranges="", bound=50, workers=1, family="C"):
    """The census over GF(p), with and without --out, against the per-tuple oracle."""
    argv = ["scan", "--field", f"GF({p})", "--family", family, "--bound", str(bound), "--workers", str(workers)]
    argv += ["--ranges", ranges] if ranges else []
    rows = oracle(p, ranges, bound, family)
    path = tmp_path / "rows.tsv"
    status, listed = invoke(argv + ["--out", str(path)])
    assert status == 0 and path.read_text() == census_text(rows), ranges
    assert listed == census_report(p, family, rows, bound, out=str(path)), ranges
    status, out = invoke(argv)
    assert status == 0 and out == census_report(p, family, rows, bound), ranges
    return out


def classes(p, ranges):
    """The distinct canonical classes of the C tuples that ranges select over GF(p)."""
    field = PrimeField(p)
    found = set()
    for values in product_space(p, "C", parse_ranges(ranges)):
        cp = canonical_2d(ParamTuple2D.make(field, **values))
        found.add((cp.a.payload, cp.b.payload, cp.c.payload))
    return found


def decided_keys(p, decided, bound=50):
    """The c_class_key of each decided canonical tuple over GF(p)."""
    key = c_class_key(PrimeField(p), bound)
    return {key(*t) for t in decided}


@pytest.fixture
def decided(monkeypatch):
    """The canonical tuples that the census passes to classify_2d_ttp, in call order."""
    calls = []

    def counting(t, bound=50):
        calls.append((t.a.payload, t.b.payload, t.c.payload))
        return classify_2d_ttp(t, bound)

    monkeypatch.setattr("ttpkit.cli.classify_2d_ttp", counting)
    return calls


# SHA-256 of the --out rows of the full GF(11) and GF(13) C censuses, as the
# census wrote them when it decided each class with Scalar arithmetic
C_CENSUS_SHA256 = {
    11: "ba00eb26742eb7ffd73c42eb7e978896d55d090e98265a7869b4de38af67a1bf",
    13: "eafe94f3fd831ea8c5e4dfaa73f61d87be0b59785095cf01cce6c9d79366caa9",
}


@pytest.mark.parametrize("p", sorted(C_CENSUS_SHA256))
def test_c_census_rows_are_pinned(p, tmp_path):
    path = tmp_path / "rows.tsv"
    status, _ = invoke(["scan", "--field", f"GF({p})", "--family", "C", "--out", str(path)])
    assert status == 0 and hashlib.sha256(path.read_bytes()).hexdigest() == C_CENSUS_SHA256[p]


# SHA-256 of the [machine] block, and the bounded-row note, of full C
# censuses at primes where many orbits outlast the scan bound, as the census
# reported them when the f_n scan kept a set of every state it had seen
C_MACHINE_SHA256 = {
    (53, 50): ("33c114158454aab267eb18d14714ff803b6956cb97d61c93fad00500040121d6", 45604),
    (101, 50): ("adc048d89c94e60230f111a0c6da813a570f91450d431fbfd2f21246e1f71682", 524100),
    (101, 5): ("cc5810a0d780991c0718b91b327a5786be83dfe716cc900497e12faf11297aa0", 959400),
}


@pytest.mark.parametrize("p, bound", sorted(C_MACHINE_SHA256))
def test_c_census_machine_blocks_are_pinned(p, bound):
    argv = ["scan", "--field", f"GF({p})", "--family", "C", "--max-prime", str(p), "--bound", str(bound)]
    status, out = invoke(argv)
    block = out[out.index("[machine]") : out.index("[/machine]") + len("[/machine]")]
    digest, bounded = C_MACHINE_SHA256[p, bound]
    assert status == 0 and hashlib.sha256(block.encode()).hexdigest() == digest
    assert f"note: {bounded} tuples certified only to the scan bound N={bound}" in out.splitlines()


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_c_census_equals_the_per_tuple_oracle(p, tmp_path):
    out = check_census(tmp_path, p)
    assert f"total={p**3}" in out


def test_gf13_census_notes_its_bounded_rows(tmp_path):
    out = check_census(tmp_path, 13)
    assert "note: 96 tuples certified only to the scan bound N=50" in out.splitlines()
    # a small bound leaves more orbits open
    out = check_census(tmp_path, 13, bound=5)
    assert sum(row[5] == "5" for row in oracle(13, "", 5)) > 96
    assert "certified only to the scan bound N=5" in out


@pytest.mark.parametrize("p", [2, 13])  # GF(7) in test_cli.py
def test_full_cube_decides_each_class_once(p, decided):
    oracle(p, "", 50)  # the oracle decides every tuple, so it runs before the spy counts
    decided.clear()
    status, out = invoke(["scan", "--field", f"GF({p})", "--family", "C"])
    assert status == 0 and f"total={p**3}" in out
    # one decision per class key, at most seven, each on a canonical class
    keys = c_census_keys(p, {})
    assert len(decided) == len(keys) <= 7
    assert decided_keys(p, decided) == keys and set(decided) <= classes(p, "")


def test_keying_a_census_boxes_nothing(monkeypatch):
    # the class keys are made on ints mod p: outside the representatives'
    # scan_row no Scalar is built, and fn_nonvanishing runs only there
    import ttpkit.classify
    import ttpkit.cli
    from ttpkit.scalars import Scalar
    from ttpkit.sequences import fn_nonvanishing

    inside, scalars, reports, decided = [False], [], [], []
    init = Scalar.__init__

    def spy_init(self, field, payload):
        if not inside[0]:
            scalars.append(payload)
        init(self, field, payload)

    def spy_row(task):
        decided.append(task[3])
        inside[0] = True
        try:
            return scan_row(task)
        finally:
            inside[0] = False

    def spy_report(a, b, bound):
        reports.append((a.payload, b.payload))
        return fn_nonvanishing(a, b, bound)

    monkeypatch.setattr(Scalar, "__init__", spy_init)
    monkeypatch.setattr(ttpkit.cli, "scan_row", spy_row)
    monkeypatch.setattr(ttpkit.cli, "fn_nonvanishing", spy_report)
    monkeypatch.setattr(ttpkit.classify, "fn_nonvanishing", spy_report)
    status, out = invoke(["scan", "--field", "GF(13)", "--family", "C"])
    assert status == 0 and "total=2197" in out
    assert scalars == []
    assert len(reports) <= len(decided) <= 7


def check_key_decides_the_row(p, heads, bound):
    """scan_row of each canonical head (a, b, c) over GF(p) equals that of the first head with its c_class_key."""
    field = PrimeField(p)
    key, rows = c_class_key(field, bound), {}

    def row(head):
        return scan_row((field, "C", bound, dict(zip("abc", head))))

    for head in heads:
        k = key(*head)
        if k not in rows:
            rows[k] = row(head)
        else:
            assert row(head) == rows[k], (p, head, k)
    return rows


def canonical_heads(p):
    """Every canonical C head over GF(p): (t, b, 1), then (1, b, 0) and (0, b, 0)."""
    return [(t, b, 1) for t in range(p) for b in range(p)] + [(a, b, 0) for a in (1, 0) for b in range(p)]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_class_key_determines_the_row_of_every_class(p):
    rows = check_key_decides_the_row(p, canonical_heads(p), 50)
    assert len(rows) == len(c_census_keys(p, {})) <= 7


@pytest.mark.parametrize("p, bound", [(53, 50), (53, 5), (101, 50), (101, 5)])
def test_class_key_determines_the_row_of_seeded_classes(p, bound):
    heads = random.Random(3200 + p + bound).sample(canonical_heads(p), 500)
    rows = check_key_decides_the_row(p, heads, bound)
    # a small bound leaves some f_n scans open, so both scan outcomes are keyed
    assert {k[0] for k in rows} == {"fn_zero", "exact", "bounded"}


def _draw(rng, p, names="abc"):
    parts = []
    for name in names:
        v = rng.randrange(p)
        parts.append(f"{name}=" + rng.choice([
            str(v), str(v - p), f"{v}|{v + p}|{rng.randrange(-p, p)}", f"{v}..{v + rng.randrange(4)}", "*",
        ]))
    return ",".join(parts)


SHAPED = [
    "a=1|8|15,b=2|2|9,c=3|10",  # every value repeated mod 7
    "c=0",  # only the heads (1, 0) and (0, 0)
    "a=0",  # only the heads (0, 1) and (0, 0)
    "a=0,c=0",
    "a=2,b=3,c=4",  # one tuple, one class
    "a=1..6,b=5,c=0",  # six tuples, one class (1, 5, 0)
    "a=1|2|4,b=5,c=4|2|1",  # nine tuples in three classes: ac runs over the squares {1, 2, 4}
    "a=3..20,b=-1,c=0|7",  # a over all of GF(7), c = 0 once: (1, 6, 0) with six tuples, (0, 6, 0) with one
]


@pytest.mark.parametrize("ranges", SHAPED)
def test_shaped_ranges_equal_the_oracle(ranges, tmp_path, decided):
    oracle(7, ranges, 50)
    decided.clear()
    check_census(tmp_path, 7, ranges)
    # two runs, with and without --out: each decides one class per key
    keys = c_census_keys(7, parse_ranges(ranges))
    assert len(decided) == 2 * len(keys)
    assert decided_keys(7, decided) == keys and set(decided) <= classes(7, ranges)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_seeded_ranges_equal_the_oracle(p, tmp_path, decided):
    rng = random.Random(2400 + p)
    for _ in range(4):
        ranges = _draw(rng, p)
        oracle(p, ranges, 50)
        decided.clear()
        check_census(tmp_path, p, ranges)
        assert len(decided) == 2 * len(c_census_keys(p, parse_ranges(ranges))), ranges


@pytest.mark.parametrize("p, ranges", [(7, ""), (11, "c=0|1|2,b=*"), (5, SHAPED[0])])
def test_two_workers_equal_serial(p, ranges, tmp_path):
    # --workers is accepted and ignored until the option goes: 2 must give the report of 1
    reports = []
    for workers in (1, 2):
        reports.append(check_census(tmp_path, p, ranges, workers=workers))
    assert reports[0] == reports[1]


@pytest.fixture
def scanned(monkeypatch):
    """The values of each scan_row task, in call order."""
    calls = []

    def counting(task):
        calls.append(task[3])
        return scan_row(task)

    monkeypatch.setattr("ttpkit.cli.scan_row", counting)
    return calls


@pytest.mark.parametrize("p", [3, 5, 7])
def test_tgh_census_equals_the_per_tuple_oracle(p, tmp_path, scanned):
    out = check_census(tmp_path, p, family="Tgh")
    assert f"total={p**2}" in out
    # two runs, with and without --out: each decides the classes h = 0 and h != 0 once
    assert scanned == 2 * tgh_representatives(p, {}) and len(scanned) == 4


@pytest.mark.parametrize("p", [5, 7, 11])
def test_tgh_seeded_ranges_equal_the_oracle(p, tmp_path, scanned):
    rng = random.Random(2900 + p)
    for _ in range(4):
        ranges = _draw(rng, p, "gh")
        check_census(tmp_path, p, ranges, family="Tgh")
        assert scanned == 2 * tgh_representatives(p, parse_ranges(ranges)), ranges
        scanned.clear()


def tgh_representatives(p, ranges):
    """The first Tgh tuple in scan order with h = 0 and the first with h != 0, those that ranges select."""
    first = {}
    for values in product_space(p, "Tgh", ranges):
        first.setdefault(values["h"] == 0, values)
    return list(first.values())


@pytest.mark.parametrize("argv, decisions", [
    (["--field", "GF(13)", "--family", "T"], 15),  # 2 elliptic and 13 reducible or fn_zero keys
    (["--field", "GF(101)", "--family", "C", "--max-prime", "101"], 7),
    (["--field", "GF(401)", "--family", "Tgh", "--max-prime", "401"], 2),  # 160,801 tuples
])
def test_a_full_census_decides_a_bounded_handful_of_classes(argv, decisions, scanned):
    status, out = invoke(["scan", *argv])
    assert status == 0 and len(scanned) == decisions
