"""ttpkit benchmark: time to a verdict on elliptic-q, regularity-gf and census-gf.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ttpkit is imported from its src/.  The
seed generates the job list (argv vectors only, see workloads.py).  Every
job's exit status and [machine] block are checked against an independent
reference and against the golden records in perfbench/golden/.

--trace 0 measures the end-to-end metrics: set-up time in fresh
interpreters, then one worker process that runs jobs in a closed loop for
--seconds.  --trace 1 runs the first four rounds of jobs once untraced and once
with spans recorded, and reports the per-layer metrics and the tracing
overhead; its job list is fixed by the seed, so its counts repeat exactly.

Times are reported in reference seconds: wall times scaled by the host
speed that calibrate.py measures next to every job and set-up probe.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the metric names and units are those of
BENCHMARK.json.  The lines before it record the seed, a digest of the job
list, the failure ratio, the percentile behind job_tail_s and the raw
wall times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from calibrate import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170  # the whole run, set-up and worker included
SETUP_SAMPLES = 15  # after one untimed warm-up that writes the bytecode caches
MEASURE_ROUNDS = 400  # more rounds than any run can finish
TRACE_ROUNDS = 4
SCAN_VERDICTS = ("not_ttp", "reducible", "elliptic", "is_ttp", "unknown")

# Times a fresh interpreter from just before `import ttpkit.cli` until the
# parser is built, then times the calibration loop.  Interpreter start-up
# itself (about 50 ms) is left out: ttpkit does not control it, and it is
# the noisiest part.
SETUP_CODE = """\
import sys, time
sys.path.insert(0, "perfbench")
from calibrate import calibrate
t0 = time.perf_counter()
sys.path.insert(0, "src")
import ttpkit.cli
ttpkit.cli.build_parser()
print(time.perf_counter() - t0, calibrate())
"""


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def job_key(argv):
    return " ".join(argv)


def load_golden(workload):
    path = HERE / "golden" / f"{workload}.json"
    with open(path) as fh:
        return json.load(fh)


def speed_scale(cal_samples):
    """Factor that turns this run's times into reference seconds (see calibrate.py).

    The mean, not the median: job times integrate over the host's speed
    regimes, which switch several times a second.
    """
    return REFERENCE_S / statistics.fmean(cal_samples)


def measure_setup(deadline):
    """Set-up time of fresh interpreters: median raw seconds, and in reference seconds."""
    samples, cal = [], []
    for k in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE],
            cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr.strip()}")
        if k:
            setup_s, cal_s = map(float, proc.stdout.split())
            samples.append(setup_s)
            cal.append(cal_s)
    raw = statistics.median(samples)
    return raw, raw * speed_scale(cal)


def run_worker(request, deadline):
    proc = subprocess.run(
        [sys.executable, "-I", str(HERE / "worker.py")],
        input=json.dumps(request), cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        fail(f"worker failed with exit code {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def parse_machine(text):
    """key -> value of a [machine] block (kept independent of ttpkit's parser)."""
    lines = text.splitlines()[1:-1]
    return dict(line.split("=", 1) for line in lines)


def check(job, res, golden):
    """None if the job's outcome matches its reference and golden record, else why not.

    With golden None only the independent reference is checked.
    """
    ref = job["ref"]
    if res["error"] is not None:
        return res["error"]
    if res["status"] not in ref["status"]:
        return f"exit status {res['status']}, expected one of {ref['status']}"
    if res["machine"] is None:
        return "no [machine] block"
    machine = parse_machine(res["machine"])
    for key, want in ref["expect"].items():
        if machine.get(key) != want:
            return f"{key}={machine.get(key)!r}, expected {want!r}"
    if "forbid" in ref and any(k.startswith(ref["forbid"]) for k in machine):
        return f"{ref['forbid']} rows present"
    if golden is None:
        return None
    record = golden.get(job_key(job["argv"]))
    if record is None:
        return "no golden record"
    if record != [res["status"], res["machine"]]:
        return "status or [machine] block differs from the golden record"
    return None


def check_all(jobs, results, golden):
    """Indices of the failed jobs; the first few are described on stderr."""
    failed = []
    for i, (job, res) in enumerate(zip(jobs, results)):
        why = check(job, res, golden)
        if why is not None:
            if len(failed) < 5:
                print(f"perfbench: FAIL {job_key(job['argv'])}: {why}", file=sys.stderr)
            failed.append(i)
    return failed


def tail(times):
    """Time at the highest percentile with at least ten samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    k = n - 11 if n >= 11 else n - 1
    return ordered[k], 100.0 * (k + 1) / n


def end_to_end(args, jobs, deadline):
    setup_raw, setup_s = measure_setup(deadline)
    golden = load_golden(args.workload)
    request = {"root": str(ROOT), "mode": "measure", "seconds": args.seconds,
               "jobs": [job["argv"] for job in jobs]}
    out = run_worker(request, deadline)
    results = out["jobs"]
    failed = set(check_all(jobs, results, golden))
    verdicts = sum(jobs[i]["ref"]["verdicts"] for i in range(len(results)) if i not in failed)
    raw = [r["t"] for r in results]
    scale = speed_scale(out["cal_s"])
    times = [t * scale for t in raw]
    tail_s, tail_pct = tail(times)
    print(f"perfbench: job_tail_s is p{tail_pct:.1f} of {len(times)} jobs")
    print(f"perfbench: raw wall seconds: setup {setup_raw:.4f}, job p50 {statistics.median(raw):.4f}, "
          f"jobs {sum(raw):.3f}; calibration mean {statistics.fmean(out['cal_s']) * 1e3:.2f} ms")
    metrics = {
        "setup_s": setup_s,
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_s,
        "verdicts_per_s": verdicts / sum(times),
        "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
    }
    return len(results), len(failed), metrics


def per_layer(args, jobs, deadline):
    golden = load_golden(args.workload)
    spans_dir = HERE / "traces"
    spans_dir.mkdir(exist_ok=True)
    spans_path = spans_dir / f"{args.workload}-seed{args.seed}.tsv.gz"
    request = {"root": str(ROOT), "mode": "trace", "jobs": [job["argv"] for job in jobs],
               "spans": str(spans_path)}
    out = run_worker(request, deadline)
    failures = check_all(jobs, out["jobs"], golden) + check_all(jobs, out["traced_jobs"], golden)
    scale = speed_scale(out["traced_cal_s"])
    metrics = {k: v * scale if k.endswith("_s") else v for k, v in out["layers"].items()}
    rows = dict.fromkeys(SCAN_VERDICTS, 0)
    for res in out["traced_jobs"]:
        if res["machine"] is None:
            continue
        for key, value in parse_machine(res["machine"]).items():
            if key.startswith("count_"):
                verdict = key[len("count_"):].split(":")[0]
                rows[verdict] = rows.get(verdict, 0) + int(value)
    metrics.update({f"cli.scan.rows.{v}": n for v, n in rows.items()})
    untraced = sum(r["t"] for r in out["jobs"]) * speed_scale(out["cal_s"])
    traced = sum(r["t"] for r in out["traced_jobs"]) * scale
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_ratio"] = traced / untraced - 1.0
    print(f"perfbench: spans written to {spans_path.relative_to(ROOT)}; "
          f"untraced {untraced:.3f} s, traced {traced:.3f} s")
    return 2 * len(jobs), len(failures), metrics


def main():
    deadline = time.monotonic() + TIME_LIMIT_S
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "ttpkit" / "cli.py").is_file():
        fail(f"no ttpkit sources under {ROOT / 'src'}; run from a full checkout")
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    rounds = workloads.rounds(args.workload, args.seed, TRACE_ROUNDS if args.trace else MEASURE_ROUNDS)
    jobs = [job for batch in rounds for job in batch]
    digest = hashlib.sha256(json.dumps([job["argv"] for job in jobs]).encode()).hexdigest()
    print(f"perfbench: workload={args.workload} seed={args.seed} jobs={len(jobs)} "
          f"jobs_sha256={digest}")

    measure = per_layer if args.trace else end_to_end
    attempted, failed, values = measure(args, jobs, deadline)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"metrics not measured: {missing}")
    print(f"perfbench: attempted={attempted} failed={failed} fail_ratio={failed / attempted:.6g}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
