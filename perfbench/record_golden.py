"""Record the golden [machine] blocks and exit statuses of every pool job.

    python3 perfbench/record_golden.py --workload NAME [--processes N]

Runs every job the workload can generate, for any seed, through
ttpkit.cli.run in this checkout, checks each against its independent
reference, and writes perfbench/golden/NAME.json.  Record once at the
commit whose outputs the benchmark pins; later runs compare bit for bit.
Nothing is written if any job fails its reference.
"""

import argparse
import json
import multiprocessing
import sys

import run
import workloads
from worker import run_job


def _init():
    sys.path.insert(0, str(run.ROOT / "src"))


def _record(argv):
    import ttpkit.cli

    return run_job(ttpkit.cli.run, argv)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--processes", type=int, default=1)
    args = ap.parse_args()
    jobs = workloads.pool_jobs(args.workload)
    if args.workload == "census-gf":
        jobs.append(workloads.census_full_t_job(3))
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(args.processes, initializer=_init) as pool:
        results = pool.map(_record, [job["argv"] for job in jobs], chunksize=1)
    failed = run.check_all(jobs, results, None)
    if failed:
        sys.exit(f"{len(failed)} of {len(jobs)} jobs fail their reference; nothing written")
    golden = {run.job_key(job["argv"]): [res["status"], res["machine"]] for job, res in zip(jobs, results)}
    path = run.HERE / "golden" / f"{args.workload}.json"
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(golden.items())) + "\n}\n")
    slowest = max(results, key=lambda r: r["t"])["t"]
    print(f"{path.relative_to(run.ROOT)}: {len(golden)} jobs, "
          f"{sum(r['t'] for r in results):.1f} s of job time, slowest {slowest:.2f} s")


if __name__ == "__main__":
    main()
