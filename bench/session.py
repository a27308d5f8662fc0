"""One workload process: set up, warm up, run timed jobs, report.

run.py starts this script once per set-up it measures:

    python3 bench/session.py --workload NAME --seed N --seconds S --trace 0|1
                             --work-dir DIR [--tiny]

Set-up is everything before the first timed job: interpreter start,
``import cmslab``, input generation and one untimed warm-up job.  The timed
loop then runs jobs one at a time (closed loop, a single client) while the
next job is expected to end within S seconds of the loop's start.  With
--trace 1 the jobs alternate between traced and untraced, so the tracing
overhead is measured in the same process.

The last line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads
from tracing import Tracer, aggregate

ROOT = Path(__file__).resolve().parent.parent


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def measure(cmslab, inputs, system, seconds: float,
            tracer: Tracer | None) -> dict:
    """Warm up, then time jobs for up to `seconds`; check every job's output.

    A job fails when it raises, when run returns a non-zero code, or when an
    output check fails.  The warm-up job counts as attempted too.  With a
    tracer, even jobs run traced and only odd jobs are timed as untraced.
    """
    stats = {"attempted": 0, "failed": 0, "failures": []}
    first_bounds = None

    def attempt(job: int, context=nullcontext()) -> float:
        nonlocal first_bounds
        stats["attempted"] += 1
        start = perf_counter()
        elapsed = None
        try:
            with context:
                outcome = workloads.run_job(cmslab, inputs, system)
            elapsed = perf_counter() - start
            errors = workloads.check(inputs, outcome, first_bounds)
            if first_bounds is None and outcome.code == 0 and not inputs.exact:
                first_bounds = (inputs.out_dir / "bounds.json").read_bytes()
        except Exception:  # a job that raises, or output a check cannot read
            errors = [traceback.format_exc(limit=-3).strip()]
        if elapsed is None:
            elapsed = perf_counter() - start
        if errors:
            stats["failed"] += 1
            stats["failures"].append(f"job {job}: " + "; ".join(errors))
        return elapsed

    attempt(-1)
    stats["ready_at"] = time.monotonic()

    untraced, traced = [], []
    start = perf_counter()
    job = 0
    while True:
        if tracer is not None and job % 2 == 0:
            root = len(tracer.spans)
            tracer.install()
            try:
                traced.append(attempt(job, tracer.root(job)))
            finally:
                tracer.uninstall()
            tracer.spans[root]["counts"]["bytes_written"] = _dir_bytes(inputs.out_dir)
        else:
            untraced.append(attempt(job))
        job += 1
        # stop before a job that would end past the budget, so a run lasts
        # set-up plus at most `seconds`; at least one job of each kind runs
        elapsed = perf_counter() - start
        if elapsed * (job + 1) / job > seconds and (
                tracer is None or (traced and untraced)):
            break
    stats.update(untraced=untraced, loop_s=perf_counter() - start)
    return stats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spans", help="where to write the spans (with --trace 1)")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import cmslab
    import cmslab.cli  # noqa: F401  (not imported by the package itself)

    if not Path(cmslab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"session: imported cmslab from {cmslab.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2

    work = Path(args.work_dir)
    try:
        inputs = workloads.prepare(args.workload, args.seed, work, tiny=args.tiny)
        system = cmslab.validate_system(inputs.config)
        tracer = Tracer(cmslab) if args.trace else None
        stats = measure(cmslab, inputs, system, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is not None:
        tracer.finish()
        if args.spans:
            tracer.write(args.spans)
        stats["totals"] = aggregate(tracer.spans)
    stats["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    stats["numpy"] = np.__version__
    print(json.dumps(stats))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
