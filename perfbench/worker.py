"""Run one workload in this process through ``ttpkit.cli.run``.

Reads one JSON request on stdin and writes one JSON result on stdout.  The
process exists only for the workload, so its peak resident memory and any
table ttpkit builds at import or on first use belong to that workload
alone.  One client runs the jobs in a closed loop: the next job starts
when the previous one returns.

Before every job the worker times the calibration loop (calibrate.py),
so that the caller can correct all times for the host's current speed.

Request keys:
  root     checkout root; ttpkit is imported from root/src
  mode     "measure": run jobs in order until `seconds` have passed
           "trace": run all jobs untraced, then again with spans recorded
  jobs     list of argv lists
  seconds  measurement time (measure mode)
  spans    path for the span table (trace mode)
"""

import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from calibrate import calibrate  # noqa: E402


def run_job(run, argv):
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        status = run(argv, stdout=buf)
        error = None
    except SystemExit as exc:  # argparse rejects the argv
        status, error = exc.code, "SystemExit"
    except Exception as exc:  # a failed job is recorded, the loop goes on
        status, error = None, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    text = buf.getvalue()
    start, end = text.find("[machine]"), text.find("[/machine]")
    machine = text[start : end + len("[/machine]")] if 0 <= start < end else None
    return {"t": dt, "status": status, "machine": machine, "error": error}


def _run_jobs(cli, jobs, deadline_s=None, tracer=None):
    """Results of the jobs run, and the calibration time taken before each."""
    results, cal = [], []
    t0 = time.perf_counter()
    for job_id, argv in enumerate(jobs):
        if deadline_s is not None and time.perf_counter() - t0 >= deadline_s:
            break
        cal.append(calibrate())
        if tracer is not None:
            tracer.job_id = job_id
        results.append(run_job(cli.run, argv))
    return results, cal


def main():
    req = json.load(sys.stdin)
    root = Path(req["root"])
    sys.path.insert(0, str(root / "src"))
    import ttpkit.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"ttpkit imported from {cli.__file__}, not from the checkout")
    out = {}
    if req["mode"] == "measure":
        out["jobs"], out["cal_s"] = _run_jobs(cli, req["jobs"], deadline_s=req["seconds"])
    else:
        from spans import Tracer

        out["jobs"], out["cal_s"] = _run_jobs(cli, req["jobs"])
        tracer = Tracer()
        tracer.install()
        out["traced_jobs"], out["traced_cal_s"] = _run_jobs(cli, req["jobs"], tracer=tracer)
        out["layers"] = tracer.layer_table()
        tracer.write(req["spans"])
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
