"""cmslab benchmark: one workload, several set-ups, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; the library is imported from
src/, nothing is installed.  The workload (see workloads.py) runs in
PROCESSES child processes one after another, each with BLAS/OpenMP threads
capped at 1, so the load stays within two cores and every process reports
its own peak memory.  Each child sets up, warms up and then times jobs
until the run has used (i + 1) / PROCESSES of S timed seconds, at least one
job per child.  All children get the same seeded inputs.

--trace 0 reports the end-to-end metrics:
    job_s        median wall time of one timed job
    setup_s      median set-up time (spawn to the end of the warm-up job)
    peak_rss_mb  median peak resident memory of a workload process
--trace 1 wraps each layer's public functions and reports the per-layer
metrics of tracing.layer_metrics from the traced jobs.

Failed jobs (a raised exception, a non-zero run exit code or a failed output
check) are counted in "failed"; failed / attempted is printed as
failed_frac.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

PROCESSES = 3
RUN_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env.pop("CMSLAB_SEED", None)  # the plan's seed must decide the run
    return env


def run_child(args, index: int, seconds: float, deadline: float) -> dict:
    work = BENCH / ".work"
    cmd = [sys.executable, str(BENCH / "session.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(max(seconds, 0.0)),
           "--trace", str(args.trace),
           "--work-dir", str(work / f"{args.workload}-p{index}-{os.getpid()}")]
    if args.trace:
        cmd += ["--spans", str(work / f"{args.workload}-seed{args.seed}-p{index}.spans.jsonl")]
    if args.tiny:
        cmd.append("--tiny")
    work.mkdir(exist_ok=True)
    spawned = time.monotonic()
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(),
                             cwd=ROOT, text=True)
    try:
        out, _ = child.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        raise RuntimeError(f"workload process {index} ran past the time limit")
    if child.returncode != 0:
        raise RuntimeError(f"workload process {index} exited with "
                           f"{child.returncode}")
    stats = json.loads(out.strip().splitlines()[-1])
    # CLOCK_MONOTONIC is shared by every process on the machine
    stats["setup_s"] = stats["ready_at"] - spawned
    return stats


def metadata(numpy_version: str) -> dict:
    sha = ""
    if (ROOT / ".git").exists():  # git would otherwise search parent dirs
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 text=True, capture_output=True,
                                 timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"git_sha": sha or "unknown", "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "src_loc": src_lines}


def end_to_end(children: list[dict]) -> dict:
    jobs = [t for c in children for t in c["untraced"]]
    setups = [c["setup_s"] for c in children]
    return {
        "job_s": (statistics.median(jobs), "s", f"median of {len(jobs)} jobs"),
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} set-ups: "
                    + ", ".join(f"{t:.3f}" for t in setups)),
        "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in children),
                        "MB", f"median of {len(children)} processes"),
    }


def per_layer(children: list[dict]) -> dict:
    totals: dict = {}
    for c in children:
        for key, value in c["totals"].items():
            totals[key] = totals.get(key, 0) + value
    untraced = [t for c in children for t in c["untraced"]]
    totals.update(untraced_s=sum(untraced), untraced_jobs=len(untraced))
    samples = f"{totals['jobs']} traced, {len(untraced)} untraced jobs"
    return {name: (value, unit, samples) for name, (value, unit)
            in tracing.layer_metrics(totals, totals["jobs"]).items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (bench/test_bench.py)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cmslab" / "__init__.py").is_file():
        print(f"bench: no cmslab sources in {ROOT / 'src'}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    children: list[dict] = []
    used = 0.0
    try:
        for i in range(PROCESSES):
            # child i may time jobs until the run has used (i+1)/PROCESSES
            # of the budget, so time a short child leaves over is not lost
            children.append(run_child(args, i, args.seconds * (i + 1) / PROCESSES
                                      - used, deadline))
            used += children[-1]["loop_s"]
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    for message in [m for c in children for m in c["failures"]][:5]:
        print(f"FAILED {message}", file=sys.stderr)
    metrics = per_layer(children) if args.trace else end_to_end(children)

    print("meta " + json.dumps(metadata(children[0]["numpy"])))
    print(f"{args.workload} seed {args.seed} trace {args.trace}:")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:24} {value:14.6g} {unit:6} ({samples})")
    print(f"  {'failed_frac':24} {failed / attempted:14.6g} {'ratio':6} "
          f"({failed} failed of {attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
