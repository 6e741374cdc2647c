"""Command-line surface: parameter documents in, reports out.

Every subcommand prints a short human-readable section followed by a
fenced machine block of sorted key=value lines that parses back to the
same dictionary (bit-exact across runs).  Exit status: 0 for definite
verdicts, 3 when a verdict is only certified to a bound, 1 for malformed
input, 2 for constraint violations (wrong family, bad characteristic).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .classify import classify_2d_ttp, classify_3d, graded_iso_type_2d
from .families import (
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
from .koszulreg import asreg_decide, asreg_decide_2d, elliptic_decide, koszul_check, yoneda_verify
from .rewrite import NotCompleted
from .scalars import QQ, CharTwo, FieldError, NestedExtension, PrimeField, QuadExtField
from .sequences import efgh_table, fn_nonvanishing


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
    except (ValueError, FieldError) as exc:
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
            try:
                with open(args.job) as fh:
                    doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(f"bad job document: {exc.msg}", position=exc.pos)
            except OSError as exc:
                raise ParseError(str(exc))
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


def parse_machine_block(text):
    lines = text.splitlines()
    try:
        start = lines.index("[machine]")
        end = lines.index("[/machine]")
    except ValueError:
        raise ParseError("no machine block found")
    out = {}
    for line in lines[start + 1 : end]:
        if "=" not in line:
            raise ParseError(f"bad machine line {line!r}")
        k, v = line.split("=", 1)
        out[k] = v
    return out


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
    job = JobDocument.load(args)
    status = 0
    if job.family == "Tgh":
        g, h = job.params["g"], job.params["h"]
        v = elliptic_decide(g, h, evidence=args.evidence, maxdeg=args.maxdeg)
        human = [f"elliptic form Tgh(g={g}, h={h})"]
        machine = {"family": "Tgh", "field": job.field}
    elif job.family == "T":
        t = classify_3d(job.tuple3d(), args.bound)
        if not t.is_ttp:
            raise ConstraintError(f"not a twisted tensor product: {t}")
        v = asreg_decide(t, evidence=args.evidence, maxdeg=args.maxdeg)
        human = [f"classified as {t}"]
        machine = {"family": "T", "field": job.field, "type": t.kind, "case": t.case or "-"}
        status = 0 if t.certified_to is None else 3
    else:
        raise ConstraintError("regularity runs on the T or Tgh families")
    human.append(f"regularity: {v}")
    machine.update(decision=v.decision, clause=v.clause)
    if v.gorenstein is not None:
        human.append(f"  {v.gorenstein}")
        machine["gorenstein_clean"] = v.gorenstein.clean
    return render(human, machine), status


def cmd_sequences(args):
    field = parse_field(args.field or "Q")
    params = parse_inline_params(args.params or "")
    if set(params) != {"a", "b"}:
        raise ParseError("sequences needs exactly a=..., b=...")
    a, b = _scalar_param(field, "a", params["a"]), _scalar_param(field, "b", params["b"])
    rows = efgh_table(a, b, args.bound)
    report = fn_nonvanishing(a, b, args.bound)
    human = [f"recurrence table at (a, b) = ({a}, {b}) over {field}:"]
    human.append("  n | e | f | g | h")
    for row in rows:
        human.append(f"  {row.n} | {row.e} | {row.f} | {row.g} | {row.h}")
    human.append(f"nonvanishing scan: {report}")
    machine = {
        "field": field,
        "a": a,
        "b": b,
        "bound": args.bound,
        "f_values": ",".join(str(r.f) for r in rows),
        "verdict": report.verdict,
        "zero_index": report.zero_index if report.zero_index is not None else "-",
        "cycle_closed": report.cycle_closed,
    }
    return render(human, machine), 0


# ---------------------------------------------------------------------------
# census scan
# ---------------------------------------------------------------------------


def parse_ranges(text):
    """name=v, name=v1|v2, name=lo..hi or name=* (full field), comma separated."""
    out = {}
    if not text:
        return out
    for chunk in text.split(","):
        if "=" not in chunk:
            raise ParseError(f"bad range {chunk!r}")
        name, spec = chunk.split("=", 1)
        name, spec = name.strip(), spec.strip()
        if spec == "*":
            out[name] = None
            continue
        try:
            if ".." in spec:
                lo, hi = spec.split("..", 1)
                out[name] = list(range(int(lo), int(hi) + 1))
            else:
                out[name] = [int(v) for v in spec.split("|")]
        except ValueError:
            raise ParseError(f"bad range {chunk!r}: values must be integers")
    return out


# Parameters each census enumerates; the T space fixes f = 1 and D = F = 0.
SCAN_PARAMS = {**FAMILY_PARAMS, "T": tuple(n for n in PARAM_NAMES_3D if n not in ("f", "D", "F"))}


def scan_space(p, family, ranges):
    """Deterministic enumeration of the census tuple space over GF(p)."""
    if family not in SCAN_PARAMS:
        raise ConstraintError(f"scan does not support family {family!r}")
    unknown = sorted(set(ranges) - set(SCAN_PARAMS[family]))
    if unknown:
        names = ", ".join(SCAN_PARAMS[family])
        raise ParseError(f"--ranges names {unknown} are not enumerated for family {family}; use {names}")
    full = list(range(p))

    def allowed(name, default):
        if name in ranges:
            vals = ranges[name]
            return full if vals is None else [v % p for v in vals]
        return default

    out = []
    if family == "C":
        for a in allowed("a", full):
            for b in allowed("b", full):
                for c in allowed("c", full):
                    out.append({"a": a, "b": b, "c": c})
        return out
    if family == "Tgh":
        for g in allowed("g", full):
            for h in allowed("h", full):
                out.append({"g": g, "h": h})
        return out
    # family T, the f = 1 normalized space: D = F = 0, e in {0,1} with the usual
    # side conditions (A in {0,1} when e = 0; C in {0,1} when e = A = 0;
    # E = d when e = 1)
    for e in allowed("e", [0, 1]):
        a_range = allowed("a", full)
        b_range = allowed("b", full)
        c_range = allowed("c", full)
        d_range = allowed("d", full)
        if e == 0:
            for A in allowed("A", [0, 1]):
                C_range = allowed("C", [0, 1] if A == 0 else full)
                for a in a_range:
                    for b in b_range:
                        for c in c_range:
                            for d in d_range:
                                for B in allowed("B", full):
                                    for C in C_range:
                                        for E in allowed("E", full):
                                            out.append(dict(a=a, b=b, c=c, d=d, e=0, f=1,
                                                            A=A, B=B, C=C, D=0, E=E, F=0))
        else:
            for a in a_range:
                for b in b_range:
                    for c in c_range:
                        for d in d_range:
                            for A in allowed("A", full):
                                for B in allowed("B", full):
                                    for C in allowed("C", full):
                                        out.append(dict(a=a, b=b, c=c, d=d, e=1, f=1,
                                                        A=A, B=B, C=C, D=0, E=d, F=0))
    return out


def scan_row(task):
    """Classify and decide one census tuple; returns plain strings for aggregation."""
    p, family, bound, values = task
    field = PrimeField(p)
    if family == "C":
        v = classify_2d_ttp(ParamTuple2D.make(field, **values), bound)
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
    return {
        "tuple": _fmt_params(values),
        "verdict": kind,
        "case": case,
        "koszul": "-" if reg is None else "koszul" if reg.koszul else "not_koszul",
        "asreg": "-" if reg is None else "regular" if reg.decision else "not_regular",
        "certified_to": "exact" if certified_to is None else str(certified_to),
    }


ROW_FIELDS = ("tuple", "verdict", "case", "koszul", "asreg", "certified_to")


def cmd_scan(args):
    field = parse_field(args.field or "GF(3)")
    if not isinstance(field, PrimeField):
        raise ConstraintError("the census scan runs over a prime field GF(p)")
    if field.p > args.max_prime:
        raise ConstraintError(f"p = {field.p} too large for a census (limit {args.max_prime})")
    ranges = parse_ranges(args.ranges)
    space = scan_space(field.p, args.family, ranges)
    tasks = [(field.p, args.family, args.bound, values) for values in space]
    # the pool forks every worker up front, so never ask for more than can run
    workers = min(args.workers, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(scan_row, tasks, chunksize=max(1, len(tasks) // (4 * workers))))
    else:
        rows = [scan_row(t) for t in tasks]
    counts = {}
    for row in rows:
        key = (row["verdict"], row["case"], row["koszul"], row["asreg"])
        counts[key] = counts.get(key, 0) + 1
    human = [f"census of family {args.family} over GF({field.p}): {len(rows)} tuples"]
    human.append("  verdict | case | koszul | asreg | count")
    for key in sorted(counts):
        human.append("  " + " | ".join(key) + f" | {counts[key]}")
    machine = {
        "family": args.family,
        "field": field,
        "total": len(rows),
        "bound": args.bound,
    }
    for key in sorted(counts):
        machine["count_" + ":".join(key)] = counts[key]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\t".join(ROW_FIELDS) + "\n")
            for row in rows:
                fh.write("\t".join(row[f] for f in ROW_FIELDS) + "\n")
        human.append(f"rows written to {args.out}")
    unknowns = sum(1 for row in rows if row["verdict"] == "unknown")
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


def build_parser():
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
    sp.add_argument("--workers", type=int, default=1)
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
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (ConstraintError, NotCompleted, NotMinimal, CharTwo) as exc:
        print(f"constraint error: {exc}", file=sys.stderr)
        return 2
    # the scan subcommand uses --out for its row table and reports to stdout
    if getattr(args, "out", None) and args.command != "scan":
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        stdout.write(text)
    return status


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
