"""The benchmark's contract with the library, checked in process.

bench/workloads.py reads run's outputs (six-column table CSVs, the shapes
of the bounds.json series rows) and bench/tracing.py wraps library names
and reads call arguments by name.  One tiny job per workload, traced as the
benchmark traces it, must pass the benchmark's own output checks.
"""

from __future__ import annotations

import json
from time import perf_counter

import pytest

import cmslab as cl

from conftest import ROOT, bench_module

workloads = bench_module("workloads")
tracing = bench_module("tracing")

PER_LAYER = {m["name"]: m["unit"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_job_passes_the_bench_checks(workload, tmp_path):
    inputs = workloads.prepare(workload, 3, tmp_path, tiny=True)
    system = cl.validate_system(inputs.config)

    start = perf_counter()
    untraced = workloads.run_job(cl, inputs, system)
    untraced_s = perf_counter() - start
    assert workloads.check(inputs, untraced, None) == []
    first_bounds = (inputs.out_dir / "bounds.json").read_bytes()

    tracer = tracing.Tracer(cl)
    tracer.install()
    try:
        with tracer.root(0):
            outcome = workloads.run_job(cl, inputs, system)
    finally:
        tracer.uninstall()
    tracer.finish()
    assert workloads.check(inputs, outcome, first_bounds) == []

    totals = tracing.aggregate(tracer.spans)
    totals.update(untraced_s=untraced_s, untraced_jobs=1)
    metrics = tracing.layer_metrics(totals, totals["jobs"])
    assert {name: unit for name, (_, unit) in metrics.items()} == PER_LAYER
    assert all(metrics[f"{layer}.failed"][0] == 0 for layer in tracing.LAYERS)
    for counted in ("cylinders.rows", "bounds.kstar_words", "cover.nodes",
                    "coding.orbit_depth"):
        assert metrics[counted][0] > 0, counted
