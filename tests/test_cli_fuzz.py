"""Argv fuzzing of the command line: every run ends in a documented exit status.

The grammar covers every subcommand with the parametric and raw families,
the fields Q, GF(2), GF(3), GF(5) and Q(sqrt(2)), valid and malformed
parameter literals, and numeric options small enough that each run takes
milliseconds.  A run may fail, but only through an exit status (1 for
malformed input, 2 for a constraint) with a one-line message; it must
never raise.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ttpkit.cli import FAMILY_PARAMS, SCAN_PARAMS, run

FIELDS = ["Q", "GF(2)", "GF(3)", "GF(5)", "Q(sqrt(2))"]
GOOD_LITERALS = ["0", "1", "-1", "2", "-2", "1/2"]
ROOT_LITERALS = ["sqrt(2)", "1+sqrt(2)", "-sqrt(2)"]  # Q(sqrt(2)) only
BAD_LITERALS = ["x", "1/0", "", "1.5", "sqrt(3)", "2**3", "1/", "=1"]
RAW_ALPHABETS = ["x", "x,y", "x,y,z", "x,x"]
RAW_RELATIONS = ["xx", "xy-yx", "xx;xy;yx;yy", "xy-yx+x", "x-x", "x*", "2", "yx-2xy;xx", "xz",
                 "x*y-y*x", "*x", "x**y", "2*", "x*y*", "xy-*yx", "xy+", "2*xy;yx"]


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
    specs = ["0", "1", "0|2", "1..2", "*"]
    names = draw(st.lists(st.sampled_from(SCAN_PARAMS.get(family, ("a",))), unique=True, max_size=2))
    ranges = {name: draw(st.sampled_from(specs)) for name in names}
    if family == "T":
        # pin a, b, c and d so that a T scan holds at most a few dozen tuples
        for name in "abcd":
            ranges.setdefault(name, str(draw(st.integers(0, 2))))
    if ranges and rarely(draw):
        ranges[draw(st.sampled_from(["z", names[0] if names else "a"]))] = "x"
    if ranges:
        argv += ["--ranges", ",".join(f"{name}={spec}" for name, spec in ranges.items())]
    return argv + option(draw, "bound", 1, 5) + option(draw, "workers", 1, 1)


@st.composite
def argv_strategy(draw):
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
