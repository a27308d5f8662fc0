"""Smoke test of the benchmark at tiny sizes (not part of the tier-1 suite).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import cmslab  # noqa: E402
import cmslab.cli  # noqa: E402
import session  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SELF_TIMES = ("model.validate_s", "model.constants_s", "simulate.estimate_s",
              "cylinders.table_s", "cylinders.mq_s", "bounds.kstar_s",
              "bounds.kl_n_s", "bounds.evaluate_s", "cover.search_s",
              "cover.verify_s", "cover.cert_verify_s", "coding.point_s",
              "cli.self_s", "bench.self_s")


def _bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                   for line in lines), m["name"]
    assert any(line.split()[:1] == ["failed_frac"] for line in lines)
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert sum(values[k] for k in SELF_TIMES) == pytest.approx(
            values["trace.job_s"], rel=1e-9)
        assert all(values[k] > 0 for k in SELF_TIMES)


def test_corrupted_run_output_counts_as_failed(tmp_path):
    """A checkout whose run writes a false pass flag fails every job."""
    shutil.copytree(ROOT / "src", tmp_path / "src")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    cli = tmp_path / "src" / "cmslab" / "cli.py"
    cli.write_text(cli.read_text() + '''

_uncorrupted_run = run


def run(plan):
    code = _uncorrupted_run(plan)
    path = Path(plan.output_dir) / "bounds.json"
    data = json.loads(path.read_text())
    data["pass_flags"]["k_n_nonnegative"] = False
    path.write_text(json.dumps(data))
    return code
''')
    proc = _bench(tmp_path, "mc_affine", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
    frac = next(line for line in proc.stdout.splitlines()
                if line.split()[:1] == ["failed_frac"])
    assert float(frac.split()[1]) == 1.0
    assert "k_n_nonnegative" in proc.stderr


def _corrupt_table(out: Path) -> None:
    path = out / "tables" / "depth_3.csv"
    rows = path.read_text().splitlines()
    cells = rows[1].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-9))
    rows[1] = ",".join(cells)
    path.write_text("\n".join(rows) + "\n")


def _corrupt_bounds(name: str, factor: float):
    def corrupt(out: Path) -> None:
        path = out / "bounds.json"
        data = json.loads(path.read_text())
        data["constants"][name] *= factor
        path.write_text(json.dumps(data))
    return corrupt


@pytest.mark.parametrize("workload, corrupt, message", [
    ("exact_cover", _corrupt_table, "Kolmogorov"),
    ("geometry_highdim", _corrupt_bounds("delta", 1.001), "delta"),
    ("geometry_highdim", _corrupt_bounds("b", 0.999), "constant b"),
])
def test_output_checks_catch_corruption(tmp_path, monkeypatch, workload,
                                        corrupt, message):
    inputs = workloads.prepare(workload, 5, tmp_path, tiny=True)
    system = cmslab.validate_system(inputs.config)
    real_run = cmslab.cli.run

    def corrupted_run(plan):
        code = real_run(plan)
        corrupt(Path(plan.output_dir))
        return code

    monkeypatch.setattr(cmslab.cli, "run", corrupted_run)
    stats = session.measure(cmslab, inputs, system, 0.0, None)
    assert stats["failed"] == stats["attempted"] == 2
    assert all(message in f for f in stats["failures"])


def test_bare_directory_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench(tmp_path, "mc_affine", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_inputs_valid_and_seeded(tmp_path, workload):
    seeds = range(3) if workload == "geometry_highdim" else range(12)
    for seed in seeds:
        inputs = workloads.prepare(workload, seed, tmp_path / str(seed))
        system = cmslab.validate_system(inputs.config)
        assert system.contraction_rate < 1.0
        plan = cmslab.cli.ExperimentPlan.from_dict(dict(inputs.plan))
        plan.validate(system)
        again = workloads.prepare(workload, seed, tmp_path / "again")
        assert again.config == inputs.config and again.pasts == inputs.pasts


def test_stationary_law_matches_library():
    config = workloads.make_system(np.random.default_rng(7), 1, affine=False)
    system = cmslab.validate_system(config)
    np.testing.assert_allclose(workloads.stationary_law(config),
                               cmslab.stationary_vertex_distribution(system),
                               rtol=0, atol=1e-14)
