from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cmslab as cl
from cmslab import cli as cli_mod
from cmslab.cli import ExperimentPlan, main, run

from conftest import sys_a_config, sys_b_config, sys_c_config


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


def test_coding_output(config_a, capsys, monkeypatch):
    # the printed orbit is the one coding_point computed, not a second one
    orbits = []
    exact = cl.coding.backward_orbit

    def counting(*args):
        orbits.append(args)
        return exact(*args)

    monkeypatch.setattr(cl.coding, "backward_orbit", counting)
    monkeypatch.setattr(cli_mod, "backward_orbit", counting, raising=False)
    assert main(["coding", "--config", str(config_a), "--past", "e2.e2"]) == 0
    assert len(orbits) == 1
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
                       ("words.csv", "vertex,x_1,weight\n1,abc,1.0\n"),
                       ("nan_weight.csv", "vertex,x_1,weight\n1,0.5,nan\n"),
                       ("inf_point.csv", "vertex,x_1,weight\n1,inf,1.0\n")):
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


@pytest.fixture
def walks(monkeypatch):
    """The depth of every walk_cylinders call, through either module."""
    import cmslab.cylinders as cyl_mod

    depths = []
    original = cyl_mod.walk_cylinders

    def counting(*args, **kwargs):
        depths.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(cyl_mod, "walk_cylinders", counting)
    monkeypatch.setattr(cli_mod, "walk_cylinders", counting)
    return depths


def test_bounds_subcommand_walks_once(config_b, walks):
    assert main(["bounds", "--config", str(config_b), "--depths", "1", "2",
                 "3", "--windows", "0", "1", "2", "--kstar-depth", "2",
                 "--samples", "500", "--seed", "5"]) == 0
    assert walks == [4]


def test_run_walks_once(config_a, tmp_path, walks, monkeypatch):
    plan = _plan_a(tmp_path, config_a)
    # a query deeper than every table and K* length, and past the word cap,
    # is followed by the one walk past its full depth 3
    monkeypatch.setattr(cl.cylinders, "WORD_CAP", 8)
    plan.queries.append({"words": ["e1.e2.e1.e2"]})
    assert run(plan) == 0
    assert walks == [3]


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


def test_cover_deep_query_and_verify_cert(config_a, tmp_path):
    # the search keeps to the query's window words, so depth 24 is cheap
    cert = tmp_path / "cert.json"
    assert main(["cover", "--config", str(config_a), "--query",
                 ".".join(["e1", "e2"] * 12), "--out", str(cert)]) == 0
    assert main(["verify-cert", "--certificate", str(cert)]) == 0


@pytest.mark.parametrize("key, value", [("window", 5),
                                        ("nodes_explored", "abc")])
def test_verify_cert_malformed_field_exits_1_without_traceback(
        key, value, config_a, tmp_path):
    cert = tmp_path / "cert.json"
    assert main(["cover", "--config", str(config_a), "--query", "e1.e2",
                 "--out", str(cert)]) == 0
    cert.write_text(json.dumps(dict(json.loads(cert.read_text()),
                                    **{key: value})))
    src = str(Path(cl.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "cmslab.cli", "verify-cert", "--certificate",
         str(cert)], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 1, proc.stderr
    assert "malformed certificate" in proc.stderr
    assert "Traceback" not in proc.stderr


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


def test_run_kstar_over_word_cap_fails_at_bounds(tmp_path, config_a,
                                                 monkeypatch):
    # tables (depths 1-2, at most 4 words) fit the cap; K* window 2 at
    # depth 2 needs the 16 words of depth 4 and does not
    plan = _plan_a(tmp_path, config_a)
    plan.depths, plan.kstar_depth, plan.kstar_windows = [1, 2], 2, [0, 1, 2]
    monkeypatch.setattr(cl.cylinders, "WORD_CAP", 8)
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


@pytest.mark.parametrize("name, mode", [("b", "monte_carlo"), ("a", "exact")])
def test_bounds_out_matches_run_bounds_json(name, mode, config_a, config_b,
                                            tmp_path):
    config = str({"a": config_a, "b": config_b}[name])
    plan = ExperimentPlan(
        config_path=config, mode=mode, seed=5, mc_samples=800, burn_in=50,
        depths=[1, 2, 3], kstar_windows=[0, 1], kstar_depth=2, queries=[],
        output_dir=str(tmp_path / "out"))
    assert run(plan) == 0
    out = tmp_path / "bounds.json"
    assert main(["bounds", "--config", config, "--mode", mode, "--depths",
                 "1", "2", "3", "--windows", "0", "1", "--kstar-depth", "2",
                 "--samples", "800", "--burn-in", "50", "--seed", "5",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (tmp_path / "out" / "bounds.json").read_bytes()
    assert json.loads(out.read_text())["pass_flags"]


def test_bounds_subcommand_exact_mode_on_affine_system_exits_2(config_b,
                                                               capsys):
    assert main(["bounds", "--config", str(config_b), "--mode", "exact",
                 "--depths", "1"]) == 2
    assert "error at stage validate: plan.mode" in capsys.readouterr().err


def _sys_c_support_1() -> dict:
    cfg = sys_c_config()
    cfg["support_set"] = [1]  # the chain also visits vertex 2
    return cfg


# case: (plan fields, with the word cap as "word_cap", config, failed stage,
# error, exit code)
_FAILURES = {
    "depth_over_cap": ({"word_cap": 2}, sys_a_config, "validate",
                       "DepthOverflow", 3,
                       "plan.depths: depth 2 exceeds the word cap 2"),
    "support_too_small": ({"queries": []}, _sys_c_support_1, "tables",
                          "AbsoluteContinuityViolation", 1,
                          "the support set is too small"),
    "query_without_words": ({"queries": [{}]}, sys_a_config, "validate",
                            "ConfigError", 2,
                            "plan.queries[0] needs 'words'"),
    "whole_space_depth_over_cap": ({"word_cap": 8,
                                    "queries": [{"whole_space_depth": 4}]},
                                   sys_a_config, "validate", "DepthOverflow",
                                   3, "plan.queries[0].whole_space_depth: "
                                   "depth 4 exceeds the word cap 8"),
}


@pytest.mark.parametrize("entry", ["run", "main"])
@pytest.mark.parametrize("case", list(_FAILURES))
def test_failure_stage_error_and_exit_code(case, entry, tmp_path, capsys,
                                           monkeypatch):
    fields, make_config, stage, error, code, message = _FAILURES[case]
    fields = dict(fields)
    if "word_cap" in fields:
        monkeypatch.setattr(cl.cylinders, "WORD_CAP", fields.pop("word_cap"))
    config = tmp_path / "sys.json"
    config.write_text(json.dumps(make_config()))
    raw = dict(vars(_plan_a(tmp_path, config)), **fields)
    if entry == "run":
        assert run(ExperimentPlan(**raw)) == code
    else:
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(raw))
        assert main(["run", "--plan", str(plan_path)]) == code
    manifest = json.loads((tmp_path / "out" / "MANIFEST.json").read_text())
    assert manifest["failure"]["stage"] == stage
    assert manifest["failure"]["error"] == error
    assert manifest["stages"][stage] == "failed"
    err = capsys.readouterr().err
    assert f"error at stage {stage}:" in err
    assert message in err


# case: (plan field changed, its new value, field path the error names)
_MALFORMED_PLANS = {
    "depths": ("depths", "3", "plan.depths"),
    "seed": ("seed", "x", "plan.seed"),
    "queries": ("queries", [3], "plan.queries[0]"),
    "mc_samples": ("mc_samples", 0, "plan.mc_samples"),
    "kstar_windows": ("kstar_windows", [-1], "plan.kstar_windows"),
    "cover_depth": ("cover_depth", 0, "plan.cover_depth"),
    "burn_in": ("burn_in", 1.5, "plan.burn_in"),
    "query_words_none": ("queries", [{"words": []}], "plan.queries[0].words"),
    "query_words_mixed_depths": ("queries", [{"words": ["e1", "e1.e2"]}],
                                 "plan.queries[0].words"),
    "query_word_empty": ("queries", [{"words": [""]}],
                         "plan.queries[0].words"),
    "query_word_repeated": ("queries", [{"whole_space_depth": 1},
                                        {"words": ["e1", "e1"]}],
                            "plan.queries[1].words"),
    "query_word_unknown_edge": ("queries", [{"words": ["e1.e9"]}],
                                "plan.queries[0].words"),
    "query_word_empty_edge_id": ("queries", [{"words": ["e1..e2"]}],
                                 "plan.queries[0].words: empty edge id"),
}


@pytest.mark.parametrize("case", list(_MALFORMED_PLANS))
def test_malformed_plan_exits_2_at_validate_naming_the_field(case, tmp_path,
                                                             config_a, capsys):
    key, value, path = _MALFORMED_PLANS[case]
    raw = dict(vars(_plan_a(tmp_path, config_a)), **{key: value})
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(raw))
    assert main(["run", "--plan", str(plan_path)]) == 2
    assert f"error at stage validate: {path}" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "out" / "MANIFEST.json").read_text())
    assert manifest["failure"]["stage"] == "validate"
    assert manifest["failure"]["error"] == "ConfigError"


def test_word_cap_field_and_output_dir_flag_exit_2(tmp_path, config_a,
                                                  capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(dict(vars(_plan_a(tmp_path, config_a)),
                                         word_cap=8)))
    assert main(["run", "--plan", str(plan_path)]) == 2
    assert "unknown fields in plan: ['word_cap']" in capsys.readouterr().err
    plan_path.write_text(json.dumps(vars(_plan_a(tmp_path, config_a))))
    with pytest.raises(SystemExit) as exc:
        main(["run", "--plan", str(plan_path),
              "--output-dir", str(tmp_path / "elsewhere")])
    assert exc.value.code == 2
    assert not (tmp_path / "elsewhere").exists()


@pytest.mark.parametrize("plan", [[1], 5, "plan"])
def test_non_object_plan_exits_2(plan, tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    assert main(["run", "--plan", str(plan_path)]) == 2
    assert "plan must be a JSON object" in capsys.readouterr().err


def test_report_marks_covers_cut_short_by_the_budget(tmp_path, config_a):
    plan = _plan_a(tmp_path, config_a)
    plan.cover_budget = 1
    assert run(plan) == 0  # a non-exhaustive cover is reported, not failed
    report = (tmp_path / "out" / "report.md").read_text()
    assert "| margin | pass | exhaustive |" in report
    rows = [line for line in report.splitlines() if line.startswith("| 0 (")]
    assert rows and rows[0].endswith("| yes | no |")
    blob = json.loads((tmp_path / "out" / "bounds.json").read_text())
    assert not any("exhaustive" in name for name in blob["pass_flags"])


def _traced_attributes() -> list[tuple[str, str]]:
    """(owner, attribute) of every call bench/tracing.py wraps."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(owner, attr) for owner, attr, _name, _layer in tracing.TRACED]


def test_every_traced_attribute_is_called_by_a_job(tmp_path, config_a,
                                                   monkeypatch):
    # A benchmark job is cli.run, verify_certificate on each certificate and
    # coding_point; if the pipeline stopped calling a library function by the
    # attribute the tracer wraps, that layer's time would silently read 0.
    calls = {}
    for owner_path, attr in _traced_attributes():
        module, _, cls = owner_path.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        original = owner.__dict__[attr] if cls else getattr(owner, attr)
        key = f"{owner_path}.{attr}"
        calls[key] = 0

        def counting(*args, _original=original, _key=key, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)
    plan = _plan_a(tmp_path, config_a)
    assert cli_mod.run(plan) == 0
    for qi in range(len(plan.queries)):
        cli_mod.verify_certificate(str(tmp_path / "out" / "covers" /
                                       f"query_{qi}.json"))
    cl.coding.coding_point(cl.validate_system(sys_a_config()), ("e1", "e2"))
    assert calls and all(calls.values()), calls


# a command line with a bad integer flag or CMSLAB_SEED: (arguments after
# --config, environment, what the message names)
_BAD_FLAGS = {
    "table_depth_0": (["table", "--depth", "0", "--mode", "exact"], {},
                      "--depth"),
    "cover_window_negative": (["cover", "--query", "e1", "--window", "-1"], {},
                              "--window"),
    "cover_depth_0": (["cover", "--query", "e1", "--depth", "0"], {},
                      "--depth"),
    "simulate_samples_0": (["simulate", "--samples", "0"], {}, "--samples"),
    "simulate_seed_negative": (["simulate", "--seed", "-1"], {}, "--seed"),
    "simulate_burn_in_negative": (["simulate", "--burn-in", "-1"], {},
                                  "--burn-in"),
    "cmslab_seed_not_an_integer": (["simulate", "--samples", "10"],
                                   {"CMSLAB_SEED": "abc"}, "CMSLAB_SEED"),
    "cmslab_seed_negative_at_validate": (
        ["bounds", "--depths", "1"], {"CMSLAB_SEED": "-1"},
        "error at stage validate: CMSLAB_SEED"),
}


@pytest.mark.parametrize("case", list(_BAD_FLAGS))
def test_bad_integer_flag_or_seed_exits_2_naming_it(case, config_a, tmp_path):
    args, env, name = _BAD_FLAGS[case]
    command, rest = args[0], args[1:]
    argv = [command, "--config", str(config_a), *rest,
            "--out", str(tmp_path / "out.csv")]
    src = str(Path(cl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, **env)
    proc = subprocess.run([sys.executable, "-m", "cmslab.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2, proc.stderr
    assert name in proc.stderr
    assert "Traceback" not in proc.stderr
