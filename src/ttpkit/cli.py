"""Command-line surface: parameter documents in, reports out.

Every subcommand prints a short human-readable section followed by a
fenced machine block of sorted key=value lines that parses back to the
same dictionary (bit-exact across runs).  Exit status: 0 for definite
verdicts, 3 when a verdict is only certified to a bound (for a census:
when it has undecided rows; rows certified to the bound get a note), 1 for
malformed input, 2 for constraint violations (wrong family, bad
characteristic, a radicand over Q past the trial-division bound).
asreg --evidence certifies the job's own presentation: the Gorenstein
profile is invariant under graded isomorphism, so it needs no normal form.
Every census goes through one in-process decide-and-fold, census_rows:
it decides one representative per class through scan_row and counts each
class with its size, whether or not --out lists the census; the walk that
lists it only writes text.  A class key holds exactly what its row reads,
so no census decides more than a fixed handful of classes at any p.  The
classes of a C census are those that c_class_key puts the canonical
classes of C(a,b,c) in, at most seven; those of a T census are those that
t_class_key puts the candidates of classify.ttp_locus in, at most 31 (two
elliptic ones, by whether h = 0), and every other T tuple is counted as
not_ttp and built and formatted only when --out lists it; a Tgh census has
two classes, h = 0 and h != 0.  A listing of more than LISTING_LIMIT rows
is refused before --out is opened, a sequences --bound above
SEQUENCES_LIMIT before its table is built, and a sequences table whose
printed rows pass SEQUENCES_TEXT_LIMIT characters as soon as they do.
scan --workers is accepted and ignored.  json is imported only when a
--job document is read, so no other run pays for loading it.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import stat
import sys
from collections import Counter
from functools import cache
from itertools import product
from typing import NamedTuple

from .classify import (
    _reducible_case,
    canonical_2d,
    canonical_head,
    classify_2d_ttp,
    classify_3d,
    graded_iso_type_2d,
    iso_branch_2d,
    ttp_locus,
)
from .families import (
    ParamPayloads3D,
    ParamTuple2D,
    ParamTuple3D,
    PARAM_NAMES_3D,
    Presentation,
    build_C,
    build_T,
    build_Tgh,
)
from .freealg import Alphabet, parse_poly, poly_str
from .homology import NotMinimal, minimal_resolution
from .koszulreg import asreg_decide, asreg_decide_2d, elliptic_decide, gorenstein_check, koszul_check, yoneda_verify
from .rewrite import NotCompleted
from .scalars import QQ, CharTwo, FieldError, NestedExtension, PrimeField, QuadExtField, RadicandTooLarge
from .sequences import efgh_rows, fn_nonvanishing, fn_scan_mod_p


class ParseError(Exception):
    def __init__(self, msg, position=None):
        super().__init__(msg if position is None else f"{msg} (at position {position})")
        self.position = position


class ConstraintError(Exception):
    pass


FAMILY_PARAMS = {
    "C": ("a", "b", "c"),
    "T": PARAM_NAMES_3D,
    "Tgh": ("g", "h"),
}


def parse_field(spec):
    spec = spec.strip()
    try:
        if spec in ("Q", "QQ"):
            return QQ
        if spec.startswith("GF(") and ")" in spec:
            inner, rest = spec[3:].split(")", 1)
            base = PrimeField(int(inner))
            if not rest:
                return base
            if rest.startswith("(sqrt(") and rest.endswith("))"):
                return QuadExtField(base, int(rest[6:-2]))
            raise ParseError(f"cannot parse field {spec!r}")
        if spec.startswith("Q(sqrt(") and spec.endswith("))"):
            body = spec[7:-2]
            num = int(body) if "/" not in body else None
            if num is None:
                from fractions import Fraction

                return QuadExtField(QQ, Fraction(body))
            return QuadExtField(QQ, num)
    except (ValueError, ZeroDivisionError, FieldError) as exc:
        raise ParseError(f"cannot parse field {spec!r}: {exc}")
    raise ParseError(f"cannot parse field {spec!r}")


def parse_inline_params(text):
    out = {}
    if not text:
        return out
    for i, chunk in enumerate(text.split(",")):
        if "=" not in chunk:
            raise ParseError(f"expected name=value in {chunk!r}", position=i)
        name, value = chunk.split("=", 1)
        out[name.strip()] = value.strip()
    return out


class JobDocument:
    """Field + family + parameter map (or raw relations)."""

    def __init__(self, field, family, params, alphabet=None, relations=None):
        self.field = field
        self.family = family
        self.params = params
        self.alphabet = alphabet
        self.relations = relations

    @staticmethod
    def load(args):
        if getattr(args, "job", None):
            import json

            try:
                with open(args.job) as fh:
                    doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(f"bad job document: {exc.msg}", position=exc.pos)
            except OSError as exc:
                raise ParseError(str(exc))
            _check_job_shape(doc)
            field = parse_field(doc.get("field", "Q"))
            family = doc.get("family")
            raw_params = doc.get("params", {})
        else:
            field = parse_field(getattr(args, "field", None) or "Q")
            family = getattr(args, "family", None)
            raw_params = parse_inline_params(getattr(args, "params", None) or "")
            doc = {}
        if family == "raw":
            names = doc.get("alphabet") or (args.alphabet.split(",") if getattr(args, "alphabet", None) else None)
            rel_texts = doc.get("relations") or (args.relations.split(";") if getattr(args, "relations", None) else None)
            if not names or not rel_texts:
                raise ParseError("raw family needs alphabet and relations")
            try:
                alphabet = Alphabet([n.strip() for n in names])
                relations = [parse_poly(alphabet, field, t) for t in rel_texts]
            except (ValueError, FieldError) as exc:
                raise ParseError(str(exc))
            if all(r.is_zero() for r in relations):
                raise ParseError("raw family needs a nonzero relation")
            return JobDocument(field, "raw", {}, alphabet, relations)
        if family not in FAMILY_PARAMS:
            raise ParseError(f"unknown family {family!r}; use C, T, Tgh or raw")
        names = FAMILY_PARAMS[family]
        unknown = set(raw_params) - set(names)
        if unknown:
            raise ParseError(f"unknown parameters {sorted(unknown)} for family {family}")
        missing = [n for n in names if n not in raw_params]
        if missing and not getattr(args, "defaults_zero", False):
            raise ParseError(
                f"missing parameters {missing}; pass --defaults-zero to zero-fill"
            )
        params = {n: _scalar_param(field, n, raw_params.get(n, 0)) for n in names}
        return JobDocument(field, family, params)

    def presentation(self):
        if self.family == "C":
            return build_C(self.tuple2d())
        if self.family == "T":
            return build_T(self.tuple3d())
        if self.family == "Tgh":
            return build_Tgh(self.params["g"], self.params["h"])
        try:
            return Presentation(self.alphabet, self.field, self.relations)
        except ValueError as exc:  # an inhomogeneous relation
            raise ParseError(str(exc))

    def tuple2d(self):
        return ParamTuple2D(self.params["a"], self.params["b"], self.params["c"])

    def tuple3d(self):
        return ParamTuple3D(**self.params)


# JSON type of each job document key; alphabet and relations list strings.
JOB_SHAPE = {"field": (str, "a string"), "family": (str, "a string"), "params": (dict, "an object"),
             "alphabet": (list, "a list of strings"), "relations": (list, "a list of strings")}


def _check_job_shape(doc):
    if not isinstance(doc, dict):
        raise ParseError("a job document must be a JSON object")
    for key, (kind, name) in JOB_SHAPE.items():
        value = doc.get(key, kind())
        if not isinstance(value, kind) or kind is list and not all(isinstance(v, str) for v in value):
            raise ParseError(f"job document {key!r} must be {name}")


def _scalar_param(field, name, value):
    """field.scalar(value); a float or a bad literal is a parse error naming the parameter."""
    if isinstance(value, float):
        raise ParseError(f"bad value for {name}: floating point {value!r} not accepted; use strings like \"1/2\"")
    try:
        return field.scalar(value)
    except (FieldError, ValueError) as exc:
        raise ParseError(f"bad value for {name}: {exc}")


# ---------------------------------------------------------------------------
# report formatting
# ---------------------------------------------------------------------------


def emit_machine(data):
    lines = ["[machine]"]
    for k in sorted(data):
        v = data[k]
        lines.append(f"{k}={v}")
    lines.append("[/machine]")
    return "\n".join(lines)


def render(human_lines, machine):
    return "\n".join(human_lines) + "\n" + emit_machine({k: str(v) for k, v in machine.items()}) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_classify(args):
    job = JobDocument.load(args)
    if job.family == "C":
        verdict = classify_2d_ttp(job.tuple2d(), args.bound)
        human = [f"family C over {job.field}: {verdict}"]
        machine = {
            "family": "C",
            "field": job.field,
            "verdict": verdict.kind,
            "certified_to": verdict.certified_to if verdict.certified_to is not None else "exact",
        }
        status = 0
        if verdict.certified_to is not None:
            status = 3
        if verdict.is_ttp:
            try:
                iso = graded_iso_type_2d(verdict)
            except NestedExtension:
                raise ConstraintError(
                    f"the graded isomorphism type over {job.field} needs a second square-root extension"
                )
            human.append(f"graded isomorphism type: {iso}")
            machine["iso_kind"] = iso.kind
            if iso.q is not None:
                machine["iso_q"] = iso.q
            machine["canonical"] = _fmt_params(iso.canonical.as_dict())
        else:
            machine["witness_kind"] = verdict.witness.kind
            human.append(f"witness: {verdict.witness}")
        return render(human, machine), status
    if job.family == "T":
        t = classify_3d(job.tuple3d(), args.bound)
        human = [f"family T over {job.field}: {t}"]
        machine = {
            "family": "T",
            "field": job.field,
            "verdict": t.kind,
            "case": t.case or "-",
            "certified_to": t.certified_to if t.certified_to is not None else "exact",
            "trace": ";".join(s.kind for s in t.trace) or "-",
        }
        if t.trace:
            human.append("normalization trace: " + "; ".join(f"{s.kind} ({s.note})" for s in t.trace))
        if t.normal_form is not None:
            machine["normal_form"] = _fmt_params(t.normal_form.as_dict())
        if t.witness is not None:
            machine["witness_kind"] = t.witness.kind
            human.append(f"witness: {t.witness}")
        if t.elliptic_form is not None:
            machine["g"] = t.elliptic_form.g
            machine["h"] = t.elliptic_form.h
        status = 0 if t.kind != "unknown" and t.certified_to is None else 3
        return render(human, machine), status
    if job.family == "Tgh":
        g, h = job.params["g"], job.params["h"]
        v = elliptic_decide(g, h)
        human = [
            f"family Tgh over {job.field}: elliptic renormalized form",
            f"g = {g}, h = {h}: {'nondegenerate' if v.koszul else 'degenerate'}",
        ]
        machine = {"family": "Tgh", "field": job.field, "verdict": "elliptic", "g": g, "h": h}
        return render(human, machine), 0
    raise ConstraintError("classification needs a parametric family (C, T or Tgh)")


def _fmt_params(d):
    return ",".join(f"{k}:{v}" for k, v in d.items())


def cmd_gb(args):
    job = JobDocument.load(args)
    pres = job.presentation()
    rs = pres.completed(args.maxdeg)
    human = [f"Gröbner basis of the {job.family} presentation to degree {args.maxdeg}:"]
    machine = {"family": job.family, "field": job.field, "maxdeg": args.maxdeg, "nrules": len(rs.rules)}
    for k, rule in enumerate(rs.rules):
        human.append(f"  {rule}")
        machine[f"rule{k}"] = f"{rule.tail.alphabet.word_str(rule.high)} -> {poly_str(rule.tail)}"
    return render(human, machine), 0


def cmd_hilbert(args):
    job = JobDocument.load(args)
    pres = job.presentation()
    dims = pres.hilbert(args.maxdeg)
    human = [f"Hilbert function to degree {args.maxdeg}: {','.join(map(str, dims))}"]
    machine = {
        "family": job.family,
        "field": job.field,
        "maxdeg": args.maxdeg,
        "dims": ",".join(map(str, dims)),
    }
    return render(human, machine), 0


def cmd_resolve(args):
    job = JobDocument.load(args)
    pres = job.presentation()
    res = minimal_resolution(pres, args.homdeg, args.maxdeg)
    human = [f"minimal resolution to position {args.homdeg}, internal degree {args.maxdeg}:"]
    triples = [f"{i}:{j}:{b}" for (i, j), b in res.betti.items()]
    human.extend(f"  b[{i},{j}] = {b}" for (i, j), b in res.betti.items())
    if res.truncated_at_position:
        human.append("  (truncated: the kernel continues past the last position)")
    machine = {
        "family": job.family,
        "field": job.field,
        "homdeg": args.homdeg,
        "maxdeg": args.maxdeg,
        "betti": ";".join(triples),
        "truncated": res.truncated_at_position,
    }
    return render(human, machine), 0


def cmd_koszul(args):
    job = JobDocument.load(args)
    pres = job.presentation()
    v = koszul_check(pres, args.homdeg)
    human = [f"Koszul check to position {args.homdeg}: {v}"]
    machine = {
        "family": job.family,
        "field": job.field,
        "bound": args.homdeg,
        "verdict": v.verdict,
        "convolution": v.convolution_ok,
    }
    if v.witness:
        machine["witness"] = f"b[{v.witness.data['i']},{v.witness.data['j']}]={v.witness.data['count']}"
    return render(human, machine), 0


def cmd_yoneda(args):
    job = JobDocument.load(args)
    if job.family != "Tgh":
        raise ConstraintError("the Yoneda verification runs on the Tgh family")
    report = yoneda_verify(job.params["g"], job.params["h"], args.homdeg)
    human = [
        f"Yoneda verification ({report.branch}):",
        f"  dual relations match: {report.dual_relations_match}",
        f"  square normal forms: {report.square_normal_forms_ok}",
    ]
    machine = {
        "family": "Tgh",
        "field": job.field,
        "branch": report.branch,
        "dual_relations_match": report.dual_relations_match,
        "squares_ok": report.square_normal_forms_ok,
        "ok": report.ok,
    }
    if report.bigraded_match is not None:
        human.append(f"  bigraded table matches resolution: {report.bigraded_match}")
        machine["bigraded_match"] = report.bigraded_match
        machine["diagonal_ok"] = report.diagonal_ok
    return render(human, machine), 0 if report.ok else 2


def cmd_asreg(args):
    if args.evidence and args.maxdeg < 3:
        raise ConstraintError(
            f"--evidence needs --maxdeg of at least 3, the degree of the top generator "
            f"of a 3-dimensional regular algebra; got {args.maxdeg}"
        )
    job = JobDocument.load(args)
    status = 0
    if job.family == "Tgh":
        g, h = job.params["g"], job.params["h"]
        v = elliptic_decide(g, h)
        human = [f"elliptic form Tgh(g={g}, h={h})"]
        machine = {"family": "Tgh", "field": job.field}
    elif job.family == "T":
        t = classify_3d(job.tuple3d(), args.bound)
        if not t.is_ttp:
            raise ConstraintError(f"not a twisted tensor product: {t}")
        v = asreg_decide(t)
        human = [f"classified as {t}"]
        machine = {"family": "T", "field": job.field, "type": t.kind, "case": t.case or "-"}
        status = 0 if t.certified_to is None else 3
    else:
        raise ConstraintError("regularity runs on the T or Tgh families")
    human.append(f"regularity: {v}")
    machine.update(decision=v.decision, clause=v.clause)
    if args.evidence and v.decision:
        profile = gorenstein_check(job.presentation(), args.maxdeg)
        human.append(f"  {profile}")
        machine["gorenstein_clean"] = profile.clean
    return render(human, machine), status


# The largest sequences --bound: the printed rows are held whole, and 10^5
# rows over GF(32003) peak near 45 MB.
SEQUENCES_LIMIT = 10**5
# The most characters the printed rows and their f values may take.  Over Q
# and Q(sqrt m) the numbers grow with n, so a bound within SEQUENCES_LIMIT
# can still need gigabytes; a table just under this size peaks near 70 MB.
SEQUENCES_TEXT_LIMIT = 16 * 10**6


def cmd_sequences(args):
    field = parse_field(args.field or "Q")
    params = parse_inline_params(args.params or "")
    if set(params) != {"a", "b"}:
        raise ParseError("sequences needs exactly a=..., b=...")
    a, b = _scalar_param(field, "a", params["a"]), _scalar_param(field, "b", params["b"])
    if args.bound > SEQUENCES_LIMIT:
        raise ConstraintError(f"--bound {args.bound} is more than the sequences limit of {SEQUENCES_LIMIT}")
    human = [f"recurrence table at (a, b) = ({a}, {b}) over {field}:"]
    human.append("  n | e | f | g | h")
    f_values, size = [], 0
    for row in efgh_rows(a, b, args.bound):
        line, f = f"  {row.n} | {row.e} | {row.f} | {row.g} | {row.h}", str(row.f)
        size += len(line) + len(f)
        if size > SEQUENCES_TEXT_LIMIT:
            raise ConstraintError(
                f"the rows to n = {row.n} take more than the sequences limit of "
                f"{SEQUENCES_TEXT_LIMIT} characters; lower --bound {args.bound}"
            )
        human.append(line)
        f_values.append(f)
    report = fn_nonvanishing(a, b, args.bound)
    human.append(f"nonvanishing scan: {report}")
    machine = {
        "field": field,
        "a": a,
        "b": b,
        "bound": args.bound,
        "f_values": ",".join(f_values),
        "verdict": report.verdict,
        "zero_index": report.zero_index if report.zero_index is not None else "-",
        "cycle_closed": report.cycle_closed,
    }
    return render(human, machine), 0


# ---------------------------------------------------------------------------
# census scan
# ---------------------------------------------------------------------------


def parse_ranges(text):
    """name=v, name=v1|v2, name=lo..hi or name=* (full field), comma separated.

    A lo..hi range stays a range object, so a wide one is never listed.
    """
    out = {}
    if not text:
        return out
    for chunk in text.split(","):
        if "=" not in chunk:
            raise ParseError(f"bad range {chunk!r}")
        name, spec = chunk.split("=", 1)
        name, spec = name.strip(), spec.strip()
        if name in out:
            raise ParseError(f"bad range {chunk!r}: {name} is given twice")
        if spec == "*":
            out[name] = None
            continue
        try:
            if ".." in spec:
                lo, hi = spec.split("..", 1)
                out[name] = range(int(lo), int(hi) + 1)
            else:
                out[name] = [int(v) for v in spec.split("|")]
        except ValueError:
            raise ParseError(f"bad range {chunk!r}: values must be integers")
        if not out[name]:
            raise ParseError(f"bad range {chunk!r}: empty, hi is below lo")
    return out


# Parameters each census enumerates; the T space fixes f = 1 and D = F = 0.
SCAN_PARAMS = {**FAMILY_PARAMS, "T": tuple(n for n in PARAM_NAMES_3D if n not in ("f", "D", "F"))}


def _residues(values, p):
    """The residues mod p of values, each once, in order of first occurrence; at most p steps on a range."""
    seen = {}
    for v in values:
        seen.setdefault(v % p)
        if len(seen) == p:
            break
    return list(seen)


def _scan_allowed(p, family, ranges):
    """allowed(name, default): the residues mod p, each once, a census enumerates for name, after checking the ranges."""
    unknown = sorted(set(ranges) - set(SCAN_PARAMS[family]))
    if unknown:
        names = ", ".join(SCAN_PARAMS[family])
        raise ParseError(f"--ranges names {unknown} are not enumerated for family {family}; use {names}")
    full = range(p)

    def allowed(name, default=full):
        values = ranges.get(name, default)
        return _residues(full if values is None else values, p)

    return allowed


class TBlock(NamedTuple):
    """A block of the normalized f = 1 T space.

    It holds the tuples with (a, b, c) in the product of the three lists
    abc and an outer tuple (e, d, A, B, C, E) with (d, A, B, C, E) in the
    product of the lists axes, ordered by (a, b, c) first; at e = 1 the E
    axis is None, for E = d.
    """

    abc: list
    e: int
    axes: tuple


def t_blocks(p, ranges):
    """The normalized f = 1 T space over GF(p) as TBlocks, in scan order.

    The side conditions: D = F = 0, e in {0, 1}, A in {0, 1} when e = 0, C
    in {0, 1} when e = A = 0, and E = d when e = 1; e = 0 has one block
    for each A.  Each list keeps the order of the ranges.  Ranges that
    leave no tuple are a parse error naming the side conditions that empty
    each branch.
    """
    allowed = _scan_allowed(p, "T", ranges)
    es = allowed("e", [0, 1])
    bad = [v for v in es if v not in (0, 1)]
    if bad:
        raise ParseError(f"--ranges gives e = {bad[0]}, but the normalized T space has e in {{0, 1}}")
    abc = [allowed(n) for n in "abc"]
    As = [A for A in allowed("A") if A in (0, 1)]
    Cs = allowed("C")
    C01 = [C for C in Cs if C in (0, 1)]
    Es = allowed("E")
    E_set = set(Es)
    dEs = [d for d in allowed("d") if d in E_set]  # d = E at e = 1
    # the side condition that empties each e branch, if one does
    empty = {0: None, 1: None}
    if not As:
        empty[0] = "A in {0, 1} when e = 0"
    elif As == [0] and not C01:
        empty[0] = "C in {0, 1} when e = A = 0"
    if not dEs:
        empty[1] = "E = d when e = 1"
    if all(empty[e] for e in es):
        why = " and ".join(empty[e] for e in es)
        raise ParseError(f"--ranges leave no tuple of the normalized T space, which has {why}")
    blocks = []
    for e in es:
        if e == 0:
            blocks += [TBlock(abc, 0, (allowed("d"), [A], allowed("B"), Cs if A else C01, Es)) for A in As]
        else:
            blocks.append(TBlock(abc, 1, (dEs, allowed("A"), allowed("B"), Cs, None)))
    return blocks


def _t_size(block):
    return math.prod(map(len, block.abc)) * math.prod(len(axis) for axis in block.axes if axis is not None)


def _t_outers(block):
    """The outer tuples (e, d, A, B, C, E) of block, in scan order."""
    ds, As, Bs, Cs, Es = block.axes
    if block.e:
        return [(1, d, A, B, C, d) for d, A, B, C in product(ds, As, Bs, Cs)]
    return [(0, d, A, B, C, E) for d, A, B, C, E in product(ds, As, Bs, Cs, Es)]


def _t_values(a, b, c, outer):
    return dict(a=a, b=b, c=c, **_t_outer_values(outer))


def _t_outer_values(outer):
    e, d, A, B, C, E = outer
    return dict(d=d, e=e, f=1, A=A, B=B, C=C, D=0, E=E, F=0)


def _fn_scans(field, bound):
    """scan(a, b): the outcome of the f_n(a, b) scan to bound, in ints mod p; sequences.fn_scan_mod_p runs once per (a, b).

    The outcome is "zero" when some f_n vanishes, else "exact" when the
    scan closes its cycle (always at a = 0) and "bounded" when it does not.
    The kernel is the one that fn_nonvanishing boxes over GF(p), so keying
    a class builds no Scalar and no NonvanishingReport.
    """
    p, scans = field.p, {}

    def scan(a, b):
        outcome = scans.get((a, b))
        if outcome is None:
            outcome = scans[a, b] = fn_scan_mod_p(p, a, b, bound)[0]
        return outcome

    return scan


def t_class_key(field, bound):
    """key(a, b, c, outer): the class of a T locus candidate, in ints mod p; its census row depends on nothing else.

    An elliptic candidate (A != 0) is in one of two classes, by whether
    h = c - (a-1)(C+a-1) of its normal form Tgh(g, h) is 0: the elliptic
    rule reads nothing else (in characteristic 2 it is a constraint error).
    A reducible one is in the class of its outer tuple's case, whether
    E = 0, whether a + d = 0 and whether the f_n(a, d) scan closes its
    cycle; a zero of f_n makes it not_ttp whatever its case.  The case
    fixes E = 0, so there are at most 7*2*2 + 3 keys.  The f_n scan runs
    once per distinct (a, d), through _fn_scans.
    """
    p = field.p
    fn_scan, cases = _fn_scans(field, bound), {}

    def key(a, b, c, outer):
        e, d, A, B, C, E = outer
        if A:
            return "elliptic", (c - (a - 1) * (C + a - 1)) % p == 0
        scan = fn_scan(a, d)
        if scan == "zero":
            return ("fn_zero",)
        case = cases.get(outer)
        if case is None:
            case = cases[outer] = _reducible_case(field, ParamPayloads3D(**_t_values(0, 0, 0, outer)))
        return "reducible", case, E == 0, (a + d) % p == 0, scan

    return key


def c_class_key(field, bound):
    """key(a, b, c): the class of a canonical C head (t, b, 1), (1, b, 0) or (0, b, 0), in ints mod p.

    The head's census row depends on nothing else.  A zero of f_n(t, b)
    makes it not_ttp; otherwise it is a twisted tensor product, exact when
    c = 0 or t = 0 or when the f_n scan closes its cycle and bounded
    otherwise, whose graded type is the kind of classify.iso_branch_2d.
    The f_n scan runs once per distinct (t, b) on the GF(p) kernel of
    sequences, through _fn_scans, and one iso_branch_2d branch serves
    every key, so keying builds no Scalar.
    """
    fn_scan, branch = _fn_scans(field, bound), iso_branch_2d(field)

    def key(a, b, c):
        scan = fn_scan(a, b) if a and c else "exact"
        if scan == "zero":
            return ("fn_zero",)
        return scan, branch(a, b, c)[1]

    return key


def scan_row(task):
    """Classify and decide one census tuple: its --out columns after tuple, as strings.

    task is (field, family, bound, values), where field is the scan's own
    GF(p), so one field serves every tuple of a scan.  A C tuple is decided
    on its canonical class C(ac,b,1), C(1,b,0) or C(0,b,0).  The row is the
    tuple (verdict, case, koszul, asreg, certified_to).
    """
    field, family, bound, values = task
    if family == "C":
        v = classify_2d_ttp(canonical_2d(ParamTuple2D.make(field, **values)), bound)
        iso = graded_iso_type_2d(v) if v.is_ttp else None
        kind, case, certified_to = v.kind, iso.kind if iso else "-", v.certified_to
        reg = asreg_decide_2d(iso) if iso else None
    elif family == "Tgh":
        kind, case, certified_to = "elliptic", "-", None
        reg = elliptic_decide(field.scalar(values["g"]), field.scalar(values["h"]))
    else:
        t = classify_3d(ParamTuple3D.make(field, **values), bound)
        kind, case, certified_to = t.kind, t.case or "-", t.certified_to
        reg = asreg_decide(t) if t.is_ttp else None
    return (kind, case, "-" if reg is None else "koszul" if reg.koszul else "not_koszul",
            "-" if reg is None else "regular" if reg.decision else "not_regular",
            "exact" if certified_to is None else str(certified_to))


ROW_FIELDS = ("tuple", "verdict", "case", "koszul", "asreg", "certified_to")


def _row_tail(row):
    """The --out line of row after its tuple column, newline included."""
    return "\t" + "\t".join(row) + "\n"


@contextlib.contextmanager
def open_out(path):
    """A file to write the output of path to; a path that cannot be written is a parse error.

    A new or plain regular path is written through a temporary file in its
    directory, which replaces it only once the block completes and is removed
    if the block raises, so a failed run leaves path as it was.  A symlink is
    followed to its target.  Anything else (a device, a FIFO, a file with more
    than one hard link) is written in place.
    """
    real = os.path.realpath(path)
    if os.path.isdir(real):
        raise ParseError(f"cannot write --out {path}: Is a directory")
    try:
        st = os.stat(real)
    except FileNotFoundError:
        st = None
    if st is not None and not (stat.S_ISREG(st.st_mode) and st.st_nlink == 1):
        try:
            fh = open(real, "w")
        except OSError as exc:
            raise ParseError(f"cannot write --out {path}: {exc.strerror}")
        with fh:
            yield fh
        return
    # a leftover file under this pid's name can only be from a dead process
    tmp = os.path.join(os.path.dirname(real), f".{os.path.basename(real)}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "w")
    except OSError as exc:
        raise ParseError(f"cannot write --out {path}: {exc.strerror}")
    try:
        with fh:
            if st is not None:
                os.chmod(tmp, stat.S_IMODE(st.st_mode))
            yield fh
        os.replace(tmp, real)
    except BaseException:
        os.unlink(tmp)
        raise


# The row of a tuple off the T locus, which classify_3d calls not_ttp.
NOT_TTP_ROW = ("not_ttp", "-", "-", "-", "exact")


def _t_census(field, bound, ranges):
    """(size, classes, values, walk) of the T census of ranges; see census_rows.

    The classes are those that t_class_key puts the candidates of
    ttp_locus in, each candidate a representative of multiplicity 1; every
    other tuple is not_ttp.  The walk writes each candidate's line from its
    class's row, and the off-locus lines of one (a, b, c) of a block
    straight from its outer tuples, as runs between them.
    """
    p, blocks, key = field.p, t_blocks(field.p, ranges), t_class_key(field, bound)

    def walk(rows):
        not_ttp = _row_tail(NOT_TTP_ROW)
        for block in blocks:
            outers = _t_outers(block)
            index = {outer: k for k, outer in enumerate(outers)}
            found = {}  # (a, b, c) -> [(outer index, class row)] of the block's candidates, in scan order
            for outer, candidates in ttp_locus(p, block.e, block.axes, block.abc):
                for a, b, c in candidates:
                    found.setdefault((a, b, c), []).append((index[outer], rows[key(a, b, c, outer)]))
            tails = [_fmt_params(_t_outer_values(outer)) + not_ttp for outer in outers]
            for a, b, c in product(*block.abc):
                head = f"a:{a},b:{b},c:{c},"
                start = 0
                for k, row in found.get((a, b, c), ()):
                    if k > start:
                        yield "".join([head + tail for tail in tails[start:k]])
                    yield head + _fmt_params(_t_outer_values(outers[k])) + _row_tail(row)
                    start = k + 1
                if start < len(tails):
                    yield "".join([head + tail for tail in tails[start:]])

    classes = ((key(a, b, c, outer), (a, b, c, outer), 1) for block in blocks
               for outer, candidates in ttp_locus(p, block.e, block.axes, block.abc) for a, b, c in candidates)
    return sum(map(_t_size, blocks)), classes, lambda candidate: _t_values(*candidate), walk


def _c_census(field, bound, ranges):
    """(size, classes, values, walk) of the C census of ranges; see census_rows.

    A C row depends only on the canonical class C(ac,b,1), C(1,b,0) or
    C(0,b,0) of its tuple, and that class's row only on its c_class_key.
    One pass over the a and c residues gives the class head of each (a, c)
    pair, through canonical_head on ints mod p, and the number of pairs
    that map to each head; crossed with the b residues these are the
    canonical classes, each its own representative, and c_class_key puts
    them in at most seven classes.  The walk writes each tuple's line from
    the row of its head's key.
    """
    axes = list(map(_scan_allowed(field.p, "C", ranges), "abc"))
    head = canonical_head(field)
    heads = {(a, c): head(a, c) for a in axes[0] for c in axes[2]}
    key = c_class_key(field, bound)

    def walk(rows):
        by_key = {k: _row_tail(row) for k, row in rows.items()}
        tails = {(a, b, c): by_key[key(a, b, c)] for a, c in set(heads.values()) for b in axes[1]}
        for a, b, c in product(*axes):
            ha, hc = heads[a, c]
            yield f"a:{a},b:{b},c:{c}{tails[ha, b, hc]}"

    classes = ((key(a, b, c), (a, b, c), n) for (a, c), n in Counter(heads.values()).items() for b in axes[1])
    return math.prod(map(len, axes)), classes, lambda cls: dict(zip("abc", cls)), walk


def _tgh_census(field, bound, ranges):
    """(size, classes, values, walk) of the Tgh census of ranges; see census_rows.

    The elliptic rule reads only whether h = 0, so each h is one class of
    len(gs) pairs, keyed by h == 0, with representative (gs[0], h).
    """
    allowed = _scan_allowed(field.p, "Tgh", ranges)
    gs, hs = allowed("g"), allowed("h")

    def walk(rows):
        for g, h in product(gs, hs):
            yield f"g:{g},h:{h}{_row_tail(rows[h == 0])}"

    return len(gs) * len(hs), ((h == 0, (gs[0], h), len(gs)) for h in hs), lambda gh: dict(zip("gh", gh)), walk


CENSUSES = {"C": _c_census, "T": _t_census, "Tgh": _tgh_census}

# The most rows scan --out lists; full GF(13) T, the largest census within the default --max-prime, has 135,150,652.
LISTING_LIMIT = 2 * 10**8


def census_rows(field, bound, family, ranges, listing):
    """census(out): the census of ranges, a mapping from each decided row to its number of tuples.

    The family gives the number of its tuples, its classes as (key,
    representative, multiplicity) and a walk that yields the --out text of
    its tuples in scan order.  census decides the first representative of
    each class through scan_row, in process; a key holds exactly what its
    row reads, so no census has more than 31 keys at any p.  That row is
    the row of its whole class, and counts the class's size.  The tuples
    outside every class count for NOT_TTP_ROW.  When out is given, the walk
    then writes to it; the counts never depend on it.  The family, the
    ranges and the size of a listing are checked before census is returned.
    """
    if family not in CENSUSES:
        raise ConstraintError(f"scan does not support family {family!r}")
    size, classes, values, walk = CENSUSES[family](field, bound, ranges)
    if listing and size > LISTING_LIMIT:
        raise ConstraintError(f"--out would list {size} rows, more than the limit of {LISTING_LIMIT}")

    def census(out):
        sizes, reps = Counter(), {}
        for key, rep, n in classes:
            sizes[key] += n
            reps.setdefault(key, rep)
        rows = {key: scan_row((field, family, bound, values(rep))) for key, rep in reps.items()}
        if out:
            for text in walk(rows):
                out.write(text)
        counts = Counter()
        for key, n in sizes.items():
            counts[rows[key]] += n
        rest = size - sum(sizes.values())
        if rest:
            counts[NOT_TTP_ROW] += rest
        return counts

    return census


def cmd_scan(args):
    field = parse_field(args.field or "GF(3)")
    if not isinstance(field, PrimeField):
        raise ConstraintError("the census scan runs over a prime field GF(p)")
    if field.p > args.max_prime:
        raise ConstraintError(f"p = {field.p} too large for a census (limit {args.max_prime})")
    ranges = parse_ranges(args.ranges)
    listing = bool(args.out)
    # the ranges are checked here, before --out is opened
    census = census_rows(field, args.bound, args.family, ranges, listing)
    with open_out(args.out) if listing else contextlib.nullcontext() as out:
        if out:
            out.write("\t".join(ROW_FIELDS) + "\n")
        decided = census(out)
    counts, bounded = Counter(), 0  # bounded: tuples certified only to the scan bound
    for row, n in decided.items():
        counts[row[:4]] += n
        bounded += n * (row[0] != "unknown" and row[4] != "exact")
    total = sum(counts.values())
    human = [f"census of family {args.family} over GF({field.p}): {total} tuples"]
    human.append("  verdict | case | koszul | asreg | count")
    for key in sorted(counts):
        human.append("  " + " | ".join(key) + f" | {counts[key]}")
    machine = {
        "family": args.family,
        "field": field,
        "total": total,
        "bound": args.bound,
    }
    for key in sorted(counts):
        machine["count_" + ":".join(key)] = counts[key]
    if args.out:
        human.append(f"rows written to {args.out}")
    if bounded:
        human.append(f"note: {bounded} tuples certified only to the scan bound N={args.bound}")
    unknowns = sum(n for key, n in counts.items() if key[0] == "unknown")
    if unknowns:
        human.append(f"note: {unknowns} tuples undecided at the scan bound")
    return render(human, machine), 0 if unknowns == 0 else 3


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _add_job_arguments(sub):
    sub.add_argument("--job", help="JSON job document path")
    sub.add_argument("--field", help='field spec: Q, GF(p), Q(sqrt(m))')
    sub.add_argument("--family", help="C | T | Tgh | raw")
    sub.add_argument("--params", help="inline parameters, e.g. a=1,b=-1,c=1")
    sub.add_argument("--alphabet", help="raw family letters, comma separated")
    sub.add_argument("--relations", help="raw family relations, semicolon separated")
    sub.add_argument("--defaults-zero", action="store_true", help="zero-fill missing parameters")
    sub.add_argument("--out", help="write the report to this path instead of stdout")


@cache
def build_parser():
    # built once per process: parse_args leaves the parser unchanged
    ap = argparse.ArgumentParser(prog="ttpkit", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="decide the twisted tensor product type")
    _add_job_arguments(sp)
    sp.add_argument("--bound", type=int, default=50, help="nonvanishing scan bound")
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("gb", help="Gröbner basis to a degree bound")
    _add_job_arguments(sp)
    sp.add_argument("--maxdeg", type=int, default=8)
    sp.set_defaults(fn=cmd_gb)

    sp = sub.add_parser("hilbert", help="Hilbert function to a degree bound")
    _add_job_arguments(sp)
    sp.add_argument("--maxdeg", type=int, default=8)
    sp.set_defaults(fn=cmd_hilbert)

    sp = sub.add_parser("resolve", help="minimal resolution Betti table")
    _add_job_arguments(sp)
    sp.add_argument("--homdeg", type=int, default=6)
    sp.add_argument("--maxdeg", type=int, default=8)
    sp.set_defaults(fn=cmd_resolve)

    sp = sub.add_parser("koszul", help="Koszulity to a homological bound")
    _add_job_arguments(sp)
    sp.add_argument("--homdeg", type=int, default=8)
    sp.set_defaults(fn=cmd_koszul)

    sp = sub.add_parser("yoneda", help="verify the Yoneda algebra description")
    _add_job_arguments(sp)
    sp.add_argument("--homdeg", type=int, default=8)
    sp.set_defaults(fn=cmd_yoneda)

    sp = sub.add_parser("asreg", help="decide Artin-Schelter regularity")
    _add_job_arguments(sp)
    sp.add_argument("--bound", type=int, default=50)
    sp.add_argument("--maxdeg", type=int, default=8)
    sp.add_argument("--evidence", action="store_true", help="attach a Gorenstein certificate")
    sp.set_defaults(fn=cmd_asreg)

    sp = sub.add_parser("sequences", help="print the recurrence table")
    sp.add_argument("--field", help="field spec")
    sp.add_argument("--params", help="a=..., b=...")
    sp.add_argument("--bound", type=int, default=50)
    sp.add_argument("--out", help="write the report to this path instead of stdout")
    sp.set_defaults(fn=cmd_sequences)

    sp = sub.add_parser("scan", help="census of a parameter space over GF(p)")
    sp.add_argument("--field", help="GF(p) with small p")
    sp.add_argument("--family", required=True, help="C | T | Tgh")
    sp.add_argument("--ranges", help="range overrides, e.g. a=0..2,b=*")
    sp.add_argument("--bound", type=int, default=50)
    sp.add_argument("--workers", type=int, default=1, help="accepted and ignored: every census runs in process")
    sp.add_argument("--max-prime", type=int, default=13)
    sp.add_argument("--out", help="write census rows (tab separated) to this path")
    sp.set_defaults(fn=cmd_scan)

    return ap


# Smallest value of each numeric option; below it no job is defined.
OPTION_MINIMUMS = {"homdeg": 1, "maxdeg": 0, "bound": 1, "workers": 1}


def _check_option_minimums(args):
    for name, least in OPTION_MINIMUMS.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise ConstraintError(f"--{name} must be at least {least}, got {value}")


def run(argv=None, stdout=None):
    stdout = stdout or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        _check_option_minimums(args)
        text, status = args.fn(args)
        # the scan subcommand uses --out for its row table and reports to stdout
        if getattr(args, "out", None) and args.command != "scan":
            with open_out(args.out) as fh:
                fh.write(text)
            return status
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (ConstraintError, NotCompleted, NotMinimal, CharTwo, RadicandTooLarge) as exc:
        print(f"constraint error: {exc}", file=sys.stderr)
        return 2
    stdout.write(text)
    return status


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
