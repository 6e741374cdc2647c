"""Argv fuzzing of the command line: every run ends in a documented exit status.

The grammar covers every subcommand with the parametric and raw families,
the fields Q, GF(2), GF(3), GF(5) and Q(sqrt(2)), valid and malformed
parameter literals, numeric options small enough that each run takes
milliseconds, and rarely an --out path that cannot be written.  A run may
fail, but only through an exit status (1 for malformed input, 2 for a
constraint) with a one-line message; it must never raise.
"""

import contextlib
import io
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ttpkit.cli import CENSUSES, FAMILY_PARAMS, NOT_TTP_ROW, SCAN_PARAMS, ParseError, parse_ranges, run
from ttpkit.scalars import PrimeField

FIELDS = ["Q", "GF(2)", "GF(3)", "GF(5)", "Q(sqrt(2))"]
GOOD_LITERALS = ["0", "1", "-1", "2", "-2", "1/2"]
ROOT_LITERALS = ["sqrt(2)", "1+sqrt(2)", "-sqrt(2)"]  # Q(sqrt(2)) only
BAD_LITERALS = ["x", "1/0", "", "1.5", "sqrt(3)", "2**3", "1/", "=1"]
MISSING_DIR = Path(__file__).parent / "no-such-directory"
RAW_ALPHABETS = ["x", "x,y", "x,y,z", "x,x"]
RAW_RELATIONS = ["xx", "xy-yx", "xx;xy;yx;yy", "xy-yx+x", "x-x", "x*", "2", "yx-2xy;xx", "xz",
                 "x*y-y*x", "*x", "x**y", "2*", "x*y*", "xy-*yx", "xy+", "2*xy;yx",
                 "yy+xx;yxxx"]


def rarely(draw):
    """True in about one draw in eight."""
    return draw(st.sampled_from([False] * 7 + [True]))


def literals(draw, field, count):
    """count parameter literals for field, one of them sometimes malformed."""
    good = GOOD_LITERALS + (ROOT_LITERALS if field == "Q(sqrt(2))" else [])
    values = [draw(st.sampled_from(good)) for _ in range(count)]
    if values and rarely(draw):
        values[draw(st.integers(0, count - 1))] = draw(st.sampled_from(BAD_LITERALS))
    return values


def option(draw, name, least, most):
    """--name with a value in [least, most], or rarely one just below least."""
    value = least - 1 if rarely(draw) else draw(st.integers(least, most))
    return [f"--{name}", str(value)]


@st.composite
def job_arguments(draw):
    family = "X" if rarely(draw) else draw(st.sampled_from(["C", "T", "Tgh", "raw"]))
    field = draw(st.sampled_from(FIELDS))
    argv = ["--field", field, "--family", family]
    if family == "raw":
        argv += ["--alphabet", draw(st.sampled_from(RAW_ALPHABETS))]
        argv += ["--relations", draw(st.sampled_from(RAW_RELATIONS))]
        return argv
    names = list(FAMILY_PARAMS.get(family, ("a", "b")))
    if draw(st.booleans()):
        names = draw(st.lists(st.sampled_from(names), unique=True, min_size=1))
        argv.append("--defaults-zero")
    if rarely(draw):
        names.append("zz")
    pairs = [f"{name}={value}" for name, value in zip(names, literals(draw, field, len(names)))]
    return argv + ["--params", ",".join(pairs)]


# (name, least meaningful value, largest value drawn) per subcommand
OPTIONS = {
    "classify": [("bound", 1, 5)],
    "gb": [("maxdeg", 0, 4)],
    "hilbert": [("maxdeg", 0, 4)],
    "resolve": [("homdeg", 1, 3), ("maxdeg", 0, 4)],
    "koszul": [("homdeg", 1, 3)],
    "yoneda": [("homdeg", 1, 3)],
    "asreg": [("bound", 1, 5), ("maxdeg", 0, 4)],
}


@st.composite
def scan_argv(draw):
    family = draw(st.sampled_from(["C", "T", "Tgh", "raw"]))
    argv = ["scan", "--field", draw(st.sampled_from(["GF(2)", "GF(3)"])), "--family", family]
    # values at or above p and values repeated mod p name a residue once
    specs = ["0", "1", "0|2", "1..2", "*", "3", "2|5", "1|1|4", "0..4", "-7..1000000000000"]
    names = draw(st.lists(st.sampled_from(SCAN_PARAMS.get(family, ("a",))), unique=True, max_size=2))
    ranges = {name: draw(st.sampled_from(specs)) for name in names}
    if family == "T":
        # pin a, b, c and d so that a T scan holds at most a few dozen tuples
        for name in "abcd":
            ranges.setdefault(name, str(draw(st.integers(0, 5))))
        if rarely(draw):
            ranges["e"] = draw(st.sampled_from(["2", "1|2", "0|2|3"]))  # outside the normalized e in {0, 1}
    if ranges and rarely(draw):
        ranges[draw(st.sampled_from(["z", names[0] if names else "a"]))] = "x"
    if ranges:
        argv += ["--ranges", ",".join(f"{name}={spec}" for name, spec in ranges.items())]
    return argv + option(draw, "bound", 1, 5) + option(draw, "workers", 1, 1)


@st.composite
def command_argv(draw):
    command = draw(st.sampled_from(sorted(OPTIONS) + ["sequences", "scan"]))
    if command == "scan":
        return draw(scan_argv())
    if command == "sequences":
        field = draw(st.sampled_from(FIELDS))
        names = ["a"] if rarely(draw) else ["a", "b"]
        params = ",".join(f"{n}={v}" for n, v in zip(names, literals(draw, field, len(names))))
        return ["sequences", "--field", field, "--params", params] + option(draw, "bound", 1, 5)
    argv = [command] + draw(job_arguments())
    for name, least, most in OPTIONS[command]:
        argv += option(draw, name, least, most)
    if command == "asreg" and draw(st.booleans()):
        argv.append("--evidence")
    return argv


@st.composite
def argv_strategy(draw):
    """A command line, rarely with --out into a directory that does not exist."""
    argv = draw(command_argv())
    if rarely(draw):
        argv += ["--out", str(MISSING_DIR / "out.txt")]
    return argv


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv_strategy())
def test_every_argv_ends_in_a_documented_status(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        status = run(argv, stdout=out)
    assert status in (0, 1, 2, 3), argv
    if status in (1, 2):
        assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())
    else:
        assert "[/machine]" in out.getvalue(), argv


def value_list(draw, values):
    """A v1|v2|... spec of one to four values."""
    return "|".join(map(str, draw(st.lists(values, min_size=1, max_size=4))))


@st.composite
def scan_ranges(draw):
    """(p, family, parsed ranges): value lists that overshoot p and repeat
    residues, *, and lo..hi ranges up to far wider than p."""
    p = draw(st.sampled_from([2, 3, 5]))
    family = draw(st.sampled_from(["C", "T", "Tgh"]))
    names = draw(st.lists(st.sampled_from(SCAN_PARAMS[family]), unique=True))
    specs = {}
    for name in names:
        lo = draw(st.integers(-3, 12))
        width = draw(st.sampled_from([0, 1, 2, 4, 10**3, 10**12]))
        specs[name] = draw(st.sampled_from([value_list(draw, st.integers(-3, 12)), "*", f"{lo}..{lo + width}"]))
    if family == "T":
        # pinning a, b, c and d to value lists keeps a GF(5) space small
        specs["e"] = value_list(draw, st.sampled_from([0, 1, 2, p, p + 1, -p]))
        for name in "abcd":
            if specs.get(name, "*") == "*" or ".." in specs[name]:
                specs[name] = value_list(draw, st.integers(-3, 12))
    return p, family, parse_ranges(",".join(f"{name}={spec}" for name, spec in specs.items()))


def residues(values, p):
    """The residues mod p named by a parsed range value, computed without a scan of a wide range."""
    if values is None or isinstance(values, range) and len(values) >= p:
        return set(range(p))
    return {v % p for v in values}


def census_space(p, family, ranges):
    """(total, values) of a census over GF(p): its tuple count, and the tuples its --out walk lists, in order.

    Every class gets one placeholder row, so nothing is decided.
    """
    size, classes, _, walk = CENSUSES[family](PrimeField(p), 50, ranges)
    text = "".join(walk(dict.fromkeys((key for key, _, _ in classes), NOT_TTP_ROW)))
    return size, [{k: int(v) for k, v in (kv.split(":") for kv in line.split("\t")[0].split(","))}
                  for line in text.splitlines()]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(scan_ranges())
def test_scan_space_counts_each_tuple_once(case):
    p, family, ranges = case
    if family == "T" and any(e % p not in (0, 1) for e in ranges["e"]):
        with pytest.raises(ParseError, match="e in"):
            census_space(p, family, ranges)
        return
    total, space = census_space(p, family, ranges)
    assert len(space) == total == len({tuple(sorted(values.items())) for values in space})
    assert all(0 <= v < p for values in space for v in values.values())
    if family != "T":  # a plain product space
        assert len(space) == math.prod(len(residues(ranges.get(name), p)) for name in SCAN_PARAMS[family])
