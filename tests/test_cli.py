from __future__ import annotations

import json

import pytest

import cmslab as cl
from cmslab import cli as cli_mod
from cmslab.cli import ExperimentPlan, main, run

from conftest import sys_a_config, sys_b_config


@pytest.fixture
def config_a(tmp_path):
    path = tmp_path / "sys_a.json"
    path.write_text(json.dumps(sys_a_config()))
    return path


@pytest.fixture
def config_b(tmp_path):
    path = tmp_path / "sys_b.json"
    path.write_text(json.dumps(sys_b_config()))
    return path


def _plan_a(tmp_path, config_a, out_name="out"):
    return ExperimentPlan(
        config_path=str(config_a), mode="exact", seed=11, mc_samples=2000,
        burn_in=100, depths=[1, 2, 3], kstar_windows=[0, 1], kstar_depth=2,
        cover_window=1, cover_depth=2,
        queries=[{"whole_space_depth": 2}, {"words": ["e1.e2"]}],
        output_dir=str(tmp_path / out_name))


def test_validate_ok(config_a, capsys):
    assert main(["validate", "--config", str(config_a)]) == 0
    assert "ok:" in capsys.readouterr().out


def test_validate_failure_exit_code(tmp_path, capsys):
    cfg = sys_a_config()
    cfg["edges"][0]["prob"]["alpha"] = 0.7
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path)]) == 2


def test_validate_malformed_config_exit_code(tmp_path, capsys):
    cfg = sys_a_config()
    cfg["edges"] = 3
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path)]) == 2
    assert "edges" in capsys.readouterr().err


def test_simulate_deterministic(config_b, tmp_path):
    out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    assert main(["simulate", "--config", str(config_b), "--samples", "500",
                 "--burn-in", "50", "--seed", "4", "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(config_b), "--samples", "500",
                 "--burn-in", "50", "--seed", "4", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_env_override(config_b, tmp_path, monkeypatch):
    out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    main(["simulate", "--config", str(config_b), "--samples", "200",
          "--seed", "4", "--out", str(out1)])
    monkeypatch.setenv("CMSLAB_SEED", "999")
    main(["simulate", "--config", str(config_b), "--samples", "200",
          "--seed", "4", "--out", str(out2)])
    assert out1.read_bytes() != out2.read_bytes()


def test_coding_output(config_a, capsys):
    assert main(["coding", "--config", str(config_a), "--past", "e2.e2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("point=0.75 error_bound=0.25 depth=2")
    assert out[1] == "j,x_1"
    assert out[2] == "-1,0.75"
    assert out[3] == "0,0.5"


def test_coding_rejects_bad_word(config_a):
    assert main(["coding", "--config", str(config_a), "--past", "zz"]) == 1


def test_table_exact(config_a, tmp_path):
    out = tmp_path / "t.csv"
    assert main(["table", "--config", str(config_a), "--depth", "3",
                 "--mode", "exact", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 9


def test_table_from_measure_csv(config_b, tmp_path):
    mu_path = tmp_path / "mu.csv"
    main(["simulate", "--config", str(config_b), "--samples", "400",
          "--seed", "2", "--out", str(mu_path)])
    out = tmp_path / "t.csv"
    assert main(["table", "--config", str(config_b), "--depth", "2",
                 "--measure", str(mu_path), "--out", str(out)]) == 0


def test_table_empty_measure_csv_is_a_validation_error(config_b, tmp_path,
                                                      capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    out = tmp_path / "t.csv"
    assert main(["table", "--config", str(config_b), "--depth", "2",
                 "--measure", str(empty), "--out", str(out)]) == 2
    assert "empty.csv" in capsys.readouterr().err
    assert not out.exists()


def test_measure_csv_malformed_raises_config_error(tmp_path):
    for name, text in (("empty.csv", ""),
                       ("header.csv", "vertex,x_1,weight\n"),
                       ("ragged.csv", "vertex,x_1,weight\n1,0.5\n"),
                       ("words.csv", "vertex,x_1,weight\n1,abc,1.0\n")):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(cl.ConfigError, match=name):
            cl.EmpiricalMeasure.from_csv(path)
    with pytest.raises(cl.ConfigError, match="missing.csv"):
        cl.EmpiricalMeasure.from_csv(tmp_path / "missing.csv")


def test_measure_csv_unknown_vertex_is_a_validation_error(config_a, tmp_path):
    path = tmp_path / "mu.csv"
    path.write_text("vertex,x_1,weight\n0,0.5,1.0\n")
    out = tmp_path / "t.csv"
    assert main(["table", "--config", str(config_a), "--depth", "1",
                 "--measure", str(path), "--out", str(out)]) == 2


def test_bounds_subcommand_walks_once(config_b, tmp_path, monkeypatch):
    import cmslab.cylinders as cyl_mod

    walks = []
    original = cyl_mod.walk_cylinders

    def counting(*args, **kwargs):
        walks.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(cyl_mod, "walk_cylinders", counting)
    monkeypatch.setattr(cli_mod, "walk_cylinders", counting)
    assert main(["bounds", "--config", str(config_b), "--depths", "1", "2",
                 "3", "--windows", "0", "1", "2", "--kstar-depth", "2",
                 "--samples", "500", "--seed", "5"]) == 0
    assert walks == [4]


def test_bounds_subcommand(config_b, tmp_path, capsys):
    out = tmp_path / "bounds.json"
    code = main(["bounds", "--config", str(config_b), "--depths", "1", "2",
                 "--windows", "0", "1", "--kstar-depth", "2",
                 "--samples", "2000", "--seed", "5", "--out", str(out)])
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["constants"]["a"] == 0.5
    assert abs(blob["bound_ii_value"] - 2.0) < 1e-9
    assert "K_n series" in capsys.readouterr().out


def test_cover_and_verify_cert(config_a, tmp_path):
    cert = tmp_path / "cert.json"
    assert main(["cover", "--config", str(config_a), "--query", "e1.e2",
                 "--window", "1", "--depth", "2", "--out", str(cert)]) == 0
    assert main(["verify-cert", "--certificate", str(cert)]) == 0

    blob = json.loads(cert.read_text())
    blob["cost"] *= 2.0
    cert.write_text(json.dumps(blob))
    assert main(["verify-cert", "--certificate", str(cert)]) == 1


def test_cover_whole_space_flag(config_a, tmp_path):
    cert = tmp_path / "cert.json"
    assert main(["cover", "--config", str(config_a), "--whole-space-depth",
                 "2", "--window", "1", "--depth", "2", "--out", str(cert)]) == 0
    assert json.loads(cert.read_text())["cost"] == 1.0


def test_run_writes_all_artifacts(tmp_path, config_a):
    plan = _plan_a(tmp_path, config_a)
    assert run(plan) == 0
    out = tmp_path / "out"
    for name in ("system.json", "measure.csv", "bounds.json", "report.md",
                 "MANIFEST.json", "tables/depth_1.csv", "tables/depth_3.csv",
                 "covers/query_0.json", "covers/query_1.json"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert all(v == "ok" for v in manifest["stages"].values())
    blob = json.loads((out / "bounds.json").read_text())
    assert all(blob["pass_flags"].values())


def test_run_deterministic_bounds_json(tmp_path, config_a):
    assert run(_plan_a(tmp_path, config_a, "out1")) == 0
    assert run(_plan_a(tmp_path, config_a, "out2")) == 0
    b1 = (tmp_path / "out1" / "bounds.json").read_bytes()
    b2 = (tmp_path / "out2" / "bounds.json").read_bytes()
    assert b1 == b2


def test_run_malformed_config_keeps_manifest_only(tmp_path):
    cfg = sys_a_config()
    cfg["edges"][0]["prob"]["alpha"] = 0.9
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    plan = ExperimentPlan(config_path=str(path), mode="exact",
                          depths=[1], queries=[],
                          output_dir=str(tmp_path / "out"))
    assert run(plan) == 2
    out = tmp_path / "out"
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert manifest["failure"]["stage"] == "validate"
    assert manifest["failure"]["error"] == "NormalizationError"
    assert not (out / "system.json").exists()
    assert not (out / "bounds.json").exists()


def test_run_exact_mode_refused_for_place_dependent(tmp_path, config_b):
    plan = ExperimentPlan(config_path=str(config_b), mode="exact",
                          depths=[1], queries=[],
                          output_dir=str(tmp_path / "out"))
    assert run(plan) == 2


def test_run_monte_carlo_sys_b(tmp_path, config_b):
    plan = ExperimentPlan(
        config_path=str(config_b), mode="monte_carlo", seed=21,
        mc_samples=5000, burn_in=200, depths=[1, 2], kstar_windows=[0, 1],
        kstar_depth=2, cover_window=1, cover_depth=2,
        queries=[{"words": ["e1"]}], output_dir=str(tmp_path / "out"))
    assert run(plan) == 0
    blob = json.loads((tmp_path / "out" / "bounds.json").read_text())
    assert abs(blob["bound_ii_value"] - 2.0) < 1e-9
    assert blob["pass_flags"]["consistency_query_0"]
    k1 = blob["k_n_series"][0]
    assert k1[1] >= 0.0


def test_run_red_flag_exit_code(tmp_path, config_a, monkeypatch):
    # force a failing sandwich to exercise the red-flag exit path
    def always_fail(lower, upper):
        return cl.ConsistencyResult(passed=False, lower=lower[0],
                                    lower_stderr=lower[1], upper=upper,
                                    margin=upper - lower[0])

    monkeypatch.setattr(cli_mod.cover_mod, "consistency_check", always_fail)
    plan = _plan_a(tmp_path, config_a)
    assert run(plan) == 4


def test_run_kstar_over_word_cap_fails_at_bounds(tmp_path, config_a):
    # tables (depths 1-2, at most 4 words) fit the cap; K* window 2 at
    # depth 2 needs the 16 words of depth 4 and does not
    plan = _plan_a(tmp_path, config_a)
    plan.depths, plan.kstar_depth, plan.kstar_windows = [1, 2], 2, [0, 1, 2]
    plan.word_cap = 8
    assert run(plan) == cli_mod.EXIT_BUDGET
    out = tmp_path / "out"
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert manifest["failure"]["stage"] == "bounds"
    assert manifest["failure"]["error"] == "DepthOverflow"
    assert manifest["stages"]["tables"] == "ok"
    assert (out / "tables" / "depth_1.csv").exists()
    assert (out / "tables" / "depth_2.csv").exists()
    assert not (out / "bounds.json").exists()


def test_plan_from_dict_rejects_unknown_fields():
    with pytest.raises(cl.ConfigError):
        ExperimentPlan.from_dict({"config_path": "x", "mystery": 1})
    with pytest.raises(cl.ConfigError):
        ExperimentPlan.from_dict({})


def test_report_numbers_trace_to_artifacts(tmp_path, config_a):
    plan = _plan_a(tmp_path, config_a)
    assert run(plan) == 0
    out = tmp_path / "out"
    report = (out / "report.md").read_text()
    blob = json.loads((out / "bounds.json").read_text())
    # every constant printed in the report reproduces a bounds.json value
    for key, value in blob["constants"].items():
        printed = f"| {key} | {value:.12g} |"
        assert printed in report, printed
