from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cmslab as cl
from cmslab import cli as cli_mod
from cmslab.cli import ExperimentPlan, main, run

from conftest import (ROOT, bench_module, loop_into_loop_config,
                      no_in_edge_config, one_loop_config, sys_a_config,
                      sys_b_config, sys_c_config)


# files that no JSON reader decodes: bytes that are not UTF-8, an integer
# past Python's 4,300-digit limit and an array nested past the recursion limit
_UNREADABLE = {"non_utf8": b"\xff\xfe{}", "long_integer": b"1" * 5000,
               "deep_array": b"[" * 100_000 + b"]" * 100_000}


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
    """A config that is no system, or that no JSON reader decodes, exits 2
    from every command that takes --config, with one line naming the fault
    and nothing written."""
    cfg = sys_a_config()
    cfg["edges"] = 3
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    commands = [["validate"], ["coding", "--past", "e1"],
                *([*argv, "--out", str(out)] for argv in _OUT_COMMANDS.values())]
    for name, raw in {"malformed": None, **_UNREADABLE}.items():
        if raw is not None:
            path = tmp_path / f"{name}.json"
            path.write_bytes(raw)
        for argv in commands:
            assert main([*argv, "--config", str(path)]) == 2, (name, argv)
            err = capsys.readouterr().err
            assert err.count("\n") == 1, (name, argv)
            assert ("edges" if raw is None else f"cannot read {path}: ") in err
    assert not out.exists()


def test_simulate_deterministic(config_b, tmp_path, capsys):
    """simulate writes the atoms of mu_N, the library's pushforward measure."""
    out1, out2, lib = (tmp_path / f"{name}.csv" for name in ("m1", "m2", "lib"))
    assert main(["simulate", "--config", str(config_b), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(config_b), "--out", str(out2)]) == 0
    assert "mu_14, 16384 atoms" in capsys.readouterr().out
    cl.pushforward_measure(cl.validate_system(sys_b_config())).to_csv(lib)
    assert out1.read_bytes() == out2.read_bytes() == lib.read_bytes()


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


def test_table_measure_flag_is_refused(config_b, tmp_path, capsys):
    """table builds mu_N itself; it reads no measure file."""
    out = tmp_path / "t.csv"
    with pytest.raises(SystemExit) as exc:
        main(["table", "--config", str(config_b), "--depth", "2",
              "--measure", "x", "--out", str(out)])
    assert exc.value.code == 2
    assert "--measure" in capsys.readouterr().err
    assert not out.exists()


def _cmslab(*argv: str, **env: str) -> subprocess.CompletedProcess:
    """`python -m cmslab.cli argv` in a child process, run on this package."""
    src = str(Path(cl.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "cmslab.cli", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src, **env))


def test_table_out_in_missing_directory_exits_1(config_b, tmp_path):
    out = tmp_path / "missing" / "t.csv"
    proc = _cmslab("table", "--config", str(config_b), "--depth", "2",
                   "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    assert str(out) in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1


# the arguments of each subcommand that writes --out, less --config and --out
_OUT_COMMANDS = {
    "table": ["table", "--depth", "2"],
    "simulate": ["simulate"],
    "bounds": ["bounds"],
    "cover": ["cover", "--query", "e1"],
}


@pytest.mark.parametrize("where", ["missing_parent", "under_a_file",
                                   "directory"])
@pytest.mark.parametrize("command", list(_OUT_COMMANDS))
def test_unwritable_out_exits_1_before_any_work(command, where, config_b,
                                                tmp_path, capsys,
                                                monkeypatch):
    """An --out that cannot be written fails before the config is read, with
    the OSError that writing it would raise, and prints one line."""
    def no_work(*args, **kwargs):
        raise AssertionError("the work began before --out was checked")

    monkeypatch.setattr(cli_mod, "_read_json", no_work)
    monkeypatch.setattr(cli_mod.cover_mod, "phi_upper", no_work)
    (tmp_path / "file").write_text("")
    out = {"missing_parent": tmp_path / "nodir" / "x",
           "under_a_file": tmp_path / "file" / "x",
           "directory": tmp_path}[where]
    with pytest.raises(OSError) as expected:
        open(out, "w")
    argv = [*_OUT_COMMANDS[command], "--config", str(config_b),
            "--out", str(out)]
    assert main(argv) == 1
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == (f"{type(expected.value).__name__}: "
                           f"{expected.value}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file",
                                                          "sys_b.json"]


def test_run_with_a_tables_file_records_the_failure(tmp_path, config_a):
    plan = _plan_a(tmp_path, config_a)
    out = Path(plan.output_dir)
    out.mkdir()
    (out / "tables").write_text("")
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(vars(plan)))
    proc = _cmslab("run", "--plan", str(plan_path))
    assert proc.returncode == 1, proc.stderr
    assert str(out / "tables") in proc.stderr
    assert "Traceback" not in proc.stderr
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert manifest["stages"]["tables"] == "failed"
    assert manifest["failure"]["stage"] == "tables"
    assert manifest["failure"]["error"] == "FileExistsError"


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
                 "3", "--windows", "0", "1", "2", "--kstar-depth", "2"]) == 0
    assert walks == [4]


def test_run_walks_once(config_a, tmp_path, walks, monkeypatch):
    plan = _plan_a(tmp_path, config_a)
    # a query deeper than every table and K* length, and past the word cap,
    # is folded past the one walk's depth 3; the three cover searches read
    # their windows and charges from its rows or from folds, the depth-4
    # query's trivial cover included
    monkeypatch.setattr(cl.cylinders, "WORD_CAP", 8)
    plan.queries.append({"words": ["e1.e2.e1.e2"]})
    assert run(plan) == 0
    assert walks == [3]
    manifest = json.loads((tmp_path / "out" / "MANIFEST.json").read_text())
    assert len(manifest["covers"]) == 3
    # the fixture counts the walks a search's Walk makes: on a depth-1
    # walk, it walks its window to depth 2 and folds the words it charges
    # that the walk lacks, which walks nothing
    sys_a = cl.validate_system(sys_a_config())
    q = cl.full_cylinder_set(sys_a, 2)
    shallow = cl.walk_cylinders(sys_a, 1, None)
    walks.clear()
    cl.phi_upper(shallow, q, 1, 2)
    assert walks == [2]


def test_run_writes_the_manifest_whatever_ends_it(config_a, tmp_path,
                                                  monkeypatch):
    """An exception that is not a cmslab error still propagates, and
    MANIFEST.json records the stage it ended and the exception."""
    def broken(*args, **kwargs):
        raise RuntimeError("broken search")

    monkeypatch.setattr(cli_mod.cover_mod, "phi_upper", broken)
    with pytest.raises(RuntimeError, match="broken search"):
        run(_plan_a(tmp_path, config_a))
    manifest = json.loads((tmp_path / "out" / "MANIFEST.json").read_text())
    assert manifest["stages"] == {
        "validate": "ok", "simulate": "ok", "constants": "ok",
        "tables": "ok", "bounds": "ok", "covers": "failed"}
    assert manifest["failure"] == {"stage": "covers", "error": "RuntimeError",
                                   "message": "broken search"}
    assert set(manifest["seconds"]) == set(manifest["stages"])


def test_bounds_subcommand(config_b, tmp_path, capsys):
    out = tmp_path / "bounds.json"
    code = main(["bounds", "--config", str(config_b), "--depths", "1", "2",
                 "--windows", "0", "1", "--kstar-depth", "2",
                 "--out", str(out)])
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["constants"]["a"] == 0.5
    assert abs(blob["bound_ii_value"] - 2.0) < 1e-9
    assert "## Divergence series" in capsys.readouterr().out


def test_k_n_nondecreasing_compares_in_order_of_depth(config_b, tmp_path,
                                                     capsys):
    """K_n of sys B's tilted coin rises with the depth.  bounds --depths
    3 1 2 and a run with depths [2, 2, 1] compare it in order of depth, so
    the flag passes, and keep their rows in the plan's order."""
    out = tmp_path / "bounds.json"
    assert main(["bounds", "--config", str(config_b), "--depths", "3", "1",
                 "2", "--out", str(out)]) == 0
    assert "- k_n_nondecreasing: pass" in capsys.readouterr().out
    series = json.loads(out.read_text())["k_n_series"]
    assert [row[0] for row in series] == [3, 1, 2]
    assert series[1][1] < series[2][1] < series[0][1]
    plan = ExperimentPlan(config_path=str(config_b), depths=[2, 2, 1],
                          kstar_depth=2, output_dir=str(tmp_path / "run"))
    assert run(plan) == 0
    report = json.loads((tmp_path / "run" / "bounds.json").read_text())
    assert [row[0] for row in report["k_n_series"]] == [2, 2, 1]
    assert report["pass_flags"]["k_n_nondecreasing"] is True


@pytest.mark.parametrize("i, edge_id", [(0, "e,1"), (1, 'e"2'), (0, "e\r3"),
                                        (1, "e\n4")])
def test_edge_id_with_a_comma_quote_or_line_break_exits_2(i, edge_id,
                                                          tmp_path, capsys):
    """An id that would split a --query list or be quoted in a table's
    word column is refused at validation, naming the field."""
    cfg = sys_a_config()
    cfg["edges"][i]["id"] = edge_id
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path)]) == 2
    assert f"ConfigError: edges[{i}].id: " in capsys.readouterr().err


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


@pytest.mark.parametrize("key, value", [
    ("window", 5), ("nodes_explored", "abc"),
    *((None, name) for name in _UNREADABLE)])
def test_verify_cert_malformed_field_exits_1_without_traceback(
        key, value, config_a, tmp_path):
    """A certificate with a malformed field, or one that no JSON reader
    decodes (key None), exits 1 with one line."""
    cert = tmp_path / "cert.json"
    if key is None:
        cert.write_bytes(_UNREADABLE[value])
    else:
        assert main(["cover", "--config", str(config_a), "--query", "e1.e2",
                     "--out", str(cert)]) == 0
        cert.write_text(json.dumps(dict(json.loads(cert.read_text()),
                                        **{key: value})))
    proc = _cmslab("verify-cert", "--certificate", str(cert))
    assert proc.returncode == 1, proc.stderr
    assert ("malformed certificate" if key else
            f"CertificateInvalid: cannot read {cert}: ") in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("pieces, depth", [
    ([{"shift": -40, "word": "e1"}], 41), ([], 42)])
def test_verify_cert_with_a_window_past_the_word_cap_exits_1(
        pieces, depth, config_a, tmp_path, capsys):
    """A certificate whose window walks past the word cap is invalid: the
    window's depth is checked before the window is built, and the check
    ends in CertificateInvalid (exit 1), not DepthOverflow (exit 3)."""
    cert = tmp_path / "cert.json"
    assert main(["cover", "--config", str(config_a), "--query", "e1",
                 "--window", "1", "--depth", "1", "--out", str(cert)]) == 0
    cert.write_text(json.dumps(dict(json.loads(cert.read_text()),
                                    pieces=pieces, window=[-40, 1])))
    capsys.readouterr()
    assert main(["verify-cert", "--certificate", str(cert)]) == 1
    assert capsys.readouterr().err == (
        f"CertificateInvalid: certificate window: depth {depth} exceeds the "
        f"word cap {cl.cylinders.WORD_CAP}\n")


def test_cover_whole_space_flag(config_a, tmp_path):
    cert = tmp_path / "cert.json"
    assert main(["cover", "--config", str(config_a), "--whole-space-depth",
                 "2", "--window", "1", "--depth", "2", "--out", str(cert)]) == 0
    assert json.loads(cert.read_text())["cost"] == 1.0


def test_cover_cut_short_by_the_budget_exits_0(config_a, tmp_path, capsys):
    """A search the budget stops still returns a verified cover, an upper
    bound like any other: exit 0, as `run` reports it."""
    cert = tmp_path / "cert.json"
    assert main(["cover", "--config", str(config_a), "--whole-space-depth",
                 "3", "--window", "2", "--depth", "3", "--budget", "1",
                 "--out", str(cert)]) == 0
    assert capsys.readouterr().out.endswith("exhaustive=False\n")
    blob = json.loads(cert.read_text())
    assert (blob["exhaustive"], blob["nodes_explored"]) == (False, 1)
    assert main(["verify-cert", "--certificate", str(cert)]) == 0


@pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
def test_whole_space_cover_of_a_thousand_window_words(mode, config_a,
                                                      tmp_path, capsys):
    """Sys A's whole depth-10 space at window 0 and cover depth 10: each of
    its 1,024 window words is a cheapest piece, so the search descends
    1,023 pieces deep before its incumbent's cost cuts it.  `cover` and
    `run` end in an exhaustive cover of cost 1 whose certificate verifies."""
    cert = tmp_path / "cert.json"
    assert main(["cover", "--config", str(config_a), "--whole-space-depth",
                 "10", "--window", "0", "--depth", "10", "--out",
                 str(cert)]) == 0
    assert capsys.readouterr().out == "cost=1 pieces=1024 exhaustive=True\n"
    assert main(["verify-cert", "--certificate", str(cert)]) == 0

    plan = _plan_a(tmp_path, config_a)
    plan.mode, plan.depths, plan.kstar_depth = mode, [1], 1
    plan.cover_window, plan.cover_depth = 0, 10
    plan.queries = [{"whole_space_depth": 10}]
    assert run(plan) == 0
    cert = tmp_path / "out" / "covers" / "query_0.json"
    blob = json.loads(cert.read_text())
    assert (blob["cost"], len(blob["pieces"]), blob["exhaustive"]) == (
        1.0, 1024, True)
    assert main(["verify-cert", "--certificate", str(cert)]) == 0


@pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
def test_query_with_an_empty_window_is_covered_at_cost_0(mode, tmp_path):
    """No edge enters e1's vertex, so no admissible word on coordinates 0..1
    spells e1: at window 1 the query e1's window holds no word, every
    sequence of it is inadmissible, and the empty cover costs 0.  Its M(Q)
    is 0 in both modes, so the run passes, and the certificate verifies."""
    config = tmp_path / "no_in_edge.json"
    config.write_text(json.dumps(no_in_edge_config()))
    out = tmp_path / "out"
    plan = ExperimentPlan(
        config_path=str(config), mode=mode, depths=[1, 2], kstar_depth=1,
        kstar_windows=[0, 1], cover_window=1, cover_depth=1,
        queries=[{"words": ["e1"]}], output_dir=str(out))
    assert run(plan) == 0
    cert = out / "covers" / "query_0.json"
    blob = json.loads(cert.read_text())
    assert (blob["pieces"], blob["cost"], blob["window"]) == ([], 0.0, [0, 1])
    assert ("| 0 (1 words, depth 1) | 0 | 0 | 0 | 0 | yes | yes |"
            in (out / "report.md").read_text())
    assert main(["verify-cert", "--certificate", str(cert)]) == 0


def test_cover_subcommand_takes_the_empty_cover_of_an_empty_window_only(
        tmp_path, capsys):
    """`cover` returns the empty cover of e1 at window 1.  At window 0 the
    window is e1 itself, so its cover is e1; a certificate that drops that
    piece fails with "cover has no pieces"."""
    config = tmp_path / "no_in_edge.json"
    config.write_text(json.dumps(no_in_edge_config()))
    cert = tmp_path / "cert.json"
    for window, printed in (("1", "cost=0 pieces=0 exhaustive=True\n"),
                            ("0", "cost=0.5 pieces=1 exhaustive=True\n")):
        assert main(["cover", "--config", str(config), "--query", "e1",
                     "--window", window, "--depth", "1", "--out",
                     str(cert)]) == 0
        assert main(["verify-cert", "--certificate", str(cert)]) == 0
        assert capsys.readouterr().out == printed + "certificate ok\n"
    cert.write_text(json.dumps(dict(json.loads(cert.read_text()), pieces=[],
                                    cost=0.0)))
    assert main(["verify-cert", "--certificate", str(cert)]) == 1
    assert ("CertificateInvalid: cover has no pieces"
            in capsys.readouterr().err)


@pytest.mark.parametrize("kinds", [[], ["--query", "e1.e2",
                                        "--whole-space-depth", "2"]])
def test_cover_needs_exactly_one_query_kind(kinds, config_a, tmp_path,
                                            capsys):
    cert = tmp_path / "cert.json"
    with pytest.raises(SystemExit) as exc:
        main(["cover", "--config", str(config_a), *kinds, "--out", str(cert)])
    assert exc.value.code == 2
    assert "--whole-space-depth" in capsys.readouterr().err
    assert not cert.exists()


def test_run_writes_all_artifacts(tmp_path, config_a):
    plan = _plan_a(tmp_path, config_a)
    assert run(plan) == 0
    out = tmp_path / "out"
    for name in ("system.json", "bounds.json", "report.md",
                 "MANIFEST.json", "tables/depth_1.csv", "tables/depth_3.csv",
                 "covers/query_0.json", "covers/query_1.json"):
        assert (out / name).exists(), name
    # mu_N is a function of system.json: run does not write its atoms
    assert not (out / "measure.csv").exists()
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert all(v == "ok" for v in manifest["stages"].values())
    # the manifest lists every file run wrote, and only those
    assert sorted(manifest["artifacts"]) == sorted(
        path.relative_to(out).as_posix() for path in out.rglob("*")
        if path.is_file() and path.name != "MANIFEST.json")
    # each search's counts, as its certificate records them
    certs = [json.loads((out / f"covers/query_{qi}.json").read_text())
             for qi in range(2)]
    assert manifest["covers"] == [
        {"query": qi, "nodes_explored": cert["nodes_explored"],
         "cover_budget": plan.cover_budget, "exhaustive": True}
        for qi, cert in enumerate(certs)]
    assert all(cert["nodes_explored"] > 0 for cert in certs)
    blob = json.loads((out / "bounds.json").read_text())
    assert all(blob["pass_flags"].values())
    _assert_stage_seconds(manifest)


@pytest.mark.parametrize("mode, config", [("exact", "config_a"),
                                          ("monte_carlo", "config_b")])
def test_manifest_counts_match_bounds_json(mode, config, tmp_path, request):
    """MANIFEST.json counts mu_N's levels and atoms as bounds.json records
    them, and the words walked per depth: every admissible word up to the
    deepest table or K* length, and no row of the deeper query word, which
    is folded."""
    config = request.getfixturevalue(config)
    out = tmp_path / "out"
    plan = ExperimentPlan(
        config_path=str(config), mode=mode, depths=[1, 2],
        kstar_windows=[0, 1], kstar_depth=2, cover_window=1, cover_depth=2,
        queries=[{"words": ["e1.e2.e1.e2.e1"]}], output_dir=str(out))
    assert run(plan) == 0
    manifest = json.loads((out / "MANIFEST.json").read_text())
    blob = json.loads((out / "bounds.json").read_text())
    assert manifest["counts"]["simulate"] == {
        key: blob["measure"][key] for key in ("levels", "atoms")}
    system = cl.validate_system(json.loads(config.read_text()))
    assert manifest["counts"]["tables"] == {"words_per_depth": [
        [1, cl.count_words(system, 1)], [2, cl.count_words(system, 2)],
        [3, cl.count_words(system, 3)]]}


def _assert_stage_seconds(manifest: dict) -> None:
    """Every stage that ran, failed or not, has its wall and CPU seconds."""
    assert set(manifest["seconds"]) == set(manifest["stages"])
    for times in manifest["seconds"].values():
        assert set(times) == {"wall", "cpu"}
        assert all(isinstance(t, float) and t >= 0.0 for t in times.values())


def test_run_never_samples_the_chain(tmp_path, config_b, monkeypatch):
    """A monte_carlo run uses the pushforward measure: it exits 0 with the
    estimate_invariant name broken, and its bounds.json is the same bytes
    under any plan seed or sample count."""
    def broken(*args, **kwargs):
        raise AssertionError("run sampled the chain")

    monkeypatch.setattr(cli_mod, "estimate_invariant", broken)
    outputs = []
    for seed, samples in ((3, 500), (4, 9000)):
        out = tmp_path / f"out{seed}"
        plan = ExperimentPlan(
            config_path=str(config_b), mode="monte_carlo", seed=seed,
            mc_samples=samples, burn_in=seed, depths=[1, 2, 3],
            kstar_windows=[0, 1], kstar_depth=2,
            queries=[{"words": ["e1.e2"]}], output_dir=str(out))
        assert run(plan) == 0
        outputs.append((out / "bounds.json").read_bytes())
    assert outputs[0] == outputs[1]
    blob = json.loads(outputs[0])
    system = cl.validate_system(sys_b_config())
    mu = cl.pushforward_measure(system)
    # k = 1 and two out-edges: 2^14 atoms fill ATOM_CAP at level 14
    assert blob["measure"] == {"levels": 14, "atoms": 2 ** 14,
                               "c_hat_gap": cl.simulate.c_hat_gap(
                                   system, mu, cl.estimate_c_hat(system, mu))}
    assert "c_hat_stderr" not in blob["constants"]
    assert all(row[2] == 0.0 for row in blob["k_n_series"])
    assert all(row[3] == 0.0 for row in blob["kstar_estimates"])
    assert all(blob["pass_flags"].values())


def test_run_deterministic_bounds_json(tmp_path, config_a):
    assert run(_plan_a(tmp_path, config_a, "out1")) == 0
    assert run(_plan_a(tmp_path, config_a, "out2")) == 0
    b1 = (tmp_path / "out1" / "bounds.json").read_bytes()
    b2 = (tmp_path / "out2" / "bounds.json").read_bytes()
    assert b1 == b2


def test_run_malformed_config_keeps_manifest_only(tmp_path, capsys):
    """A plan whose config is invalid, or that no JSON reader decodes, exits
    2 at stage validate and writes MANIFEST.json only; a plan file that no
    JSON reader decodes exits 2 before any stage.  Each prints one line."""
    cfg = sys_a_config()
    cfg["edges"][0]["prob"]["alpha"] = 0.9
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    for name, raw in {"NormalizationError": None, **_UNREADABLE}.items():
        if raw is not None:
            path = tmp_path / f"{name}.json"
            path.write_bytes(raw)
        out = tmp_path / f"out_{name}"
        plan = ExperimentPlan(config_path=str(path), mode="exact",
                              depths=[1], queries=[], output_dir=str(out))
        plan_path = tmp_path / f"plan_{name}.json"
        plan_path.write_text(json.dumps(vars(plan)))
        assert main(["run", "--plan", str(plan_path)]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("error at stage validate: ")
        assert err.count("\n") == 1
        manifest = json.loads((out / "MANIFEST.json").read_text())
        assert manifest["failure"]["stage"] == "validate"
        assert manifest["failure"]["error"] == (
            "ConfigError" if raw is not None else name)
        assert sorted(p.name for p in out.iterdir()) == ["MANIFEST.json"]
        if raw is not None:
            assert main(["run", "--plan", str(path)]) == 2, name
            assert capsys.readouterr().err.startswith(
                f"ConfigError: cannot read {path}: ")


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


def test_run_passes_when_the_lower_bound_equals_the_cover_cost(tmp_path):
    """Constant maps and affine probabilities with beta = 0: the corollary
    factor is 1 and M(Q) = phi0(Q) = the cover cost of a one-word query, so
    the two sides of the consistency check are equal and differ by rounding
    alone (the lower bound of e2 reads 3.3e-16 above its cost).  `run`
    exits 0 with every pass flag true."""
    def edge(eid, offset, alpha):
        return {"id": eid, "source": 1, "target": 1, "linear": [0.0],
                "offset": [offset],
                "prob": {"family": "affine", "alpha": alpha, "beta": [0.0]}}

    config = tmp_path / "sys.json"
    config.write_text(json.dumps({
        "dimension": 1,
        "vertices": [{"index": 1, "lower": [0.0], "upper": [1.0],
                      "base_point": [0.5]}],
        "edges": [edge("e1", 0.25, 0.3), edge("e2", 0.75, 0.7)],
        "support_set": [1]}))
    plan = ExperimentPlan(
        config_path=str(config), mode="monte_carlo", depths=[1, 2],
        kstar_windows=[0, 1], kstar_depth=2, cover_window=1, cover_depth=2,
        queries=[{"words": ["e2"]}, {"words": ["e2.e2"]}],
        output_dir=str(tmp_path / "out"))
    assert run(plan) == 0
    blob = json.loads((tmp_path / "out" / "bounds.json").read_text())
    assert blob["corollary_factor"] == 1.0
    assert all(blob["pass_flags"].values())


@pytest.mark.parametrize("name, mode", [("a", "exact"), ("a", "monte_carlo"),
                                        ("b", "monte_carlo")])
def test_run_accepts_the_normalization_gap_validation_admits(name, mode,
                                                             tmp_path):
    """alpha(e1) raised by 9e-13, which validation admits: every table of
    depths 1-4 sums to 1 only within about n * 9e-13, and `run` exits 0."""
    cfg = {"a": sys_a_config, "b": sys_b_config}[name]()
    cfg["edges"][0]["prob"]["alpha"] += 9e-13
    config = tmp_path / "sys.json"
    config.write_text(json.dumps(cfg))
    plan = _plan_a(tmp_path, config)
    plan.mode, plan.depths = mode, [1, 2, 3, 4]
    assert run(plan) == 0
    blob = json.loads((tmp_path / "out" / "bounds.json").read_text())
    assert all(blob["pass_flags"].values())


def test_run_red_flag_exit_code(tmp_path, config_a, monkeypatch, capsys):
    # force a failing sandwich to exercise the red-flag exit path
    def always_fail(lower, upper):
        return cl.ConsistencyResult(passed=False, lower=lower, upper=upper,
                                    margin=upper - lower)

    monkeypatch.setattr(cli_mod.cover_mod, "consistency_check", always_fail)
    plan = _plan_a(tmp_path, config_a)
    assert run(plan) == 4
    assert ("error at stage consistency: queries [0, 1]: lower bound above "
            "the cover cost") in capsys.readouterr().err
    out = tmp_path / "out"
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert manifest["stages"]["consistency"] == "failed"
    assert manifest["failure"]["stage"] == "consistency"
    assert manifest["failure"]["error"] == "ConsistencyRedFlag"
    assert (out / "bounds.json").exists() and (out / "report.md").exists()
    assert {"bounds.json", "report.md"} <= set(manifest["artifacts"])


def test_run_kstar_over_word_cap_fails_at_validate(tmp_path, config_a,
                                                   monkeypatch, capsys):
    # tables (depths 1-2, at most 4 words) fit the cap; K* window 2 at
    # depth 2 walks the 16 words of depth 4, which do not
    plan = _plan_a(tmp_path, config_a)
    plan.depths, plan.kstar_depth, plan.kstar_windows = [1, 2], 2, [0, 1, 2]
    monkeypatch.setattr(cl.cylinders, "WORD_CAP", 8)
    message = ("plan.kstar_depth + plan.kstar_windows[2]: depth 4 exceeds "
               "the word cap 8")
    assert run(plan) == cli_mod.EXIT_BUDGET
    assert f"error at stage validate: {message}" in capsys.readouterr().err
    out = tmp_path / "out"
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert manifest["failure"] == {"stage": "validate",
                                   "error": "DepthOverflow",
                                   "message": message}
    assert not (out / "tables").exists()
    assert main(["bounds", "--config", str(config_a), "--depths", "1", "2",
                 "--windows", "0", "1", "2", "--kstar-depth", "2"]) == 3
    printed = capsys.readouterr()
    assert printed.out == ""
    assert f"error at stage validate: {message}" in printed.err


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
                                            tmp_path, capsys):
    config = str({"a": config_a, "b": config_b}[name])
    plan = ExperimentPlan(
        config_path=config, mode=mode, seed=5, mc_samples=800, burn_in=50,
        depths=[1, 2, 3], kstar_windows=[0, 1], kstar_depth=2, queries=[],
        output_dir=str(tmp_path / "out"))
    assert run(plan) == 0
    out = tmp_path / "bounds.json"
    assert main(["bounds", "--config", config, "--mode", mode, "--depths",
                 "1", "2", "3", "--windows", "0", "1", "--kstar-depth", "2",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (tmp_path / "out" / "bounds.json").read_bytes()
    assert json.loads(out.read_text())["pass_flags"]
    # bounds prints run's report, pass flags included
    printed = capsys.readouterr().out
    assert printed == (tmp_path / "out" / "report.md").read_text()
    assert "- k_n_nonnegative: pass" in printed


def test_bounds_subcommand_exact_mode_on_affine_system_exits_2(config_b,
                                                               capsys):
    assert main(["bounds", "--config", str(config_b), "--mode", "exact",
                 "--depths", "1"]) == 2
    assert "error at stage validate: plan.mode" in capsys.readouterr().err


def test_table_exact_mode_on_affine_system_exits_2(config_b, tmp_path, capsys):
    """The table subcommand refuses exact mode on a place-dependent system
    with the exit code bounds and run give it."""
    assert main(["table", "--config", str(config_b), "--mode", "exact",
                 "--depth", "2", "--out", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert "ExactModeUnavailable" in err
    assert "constant probability functions" in err
    assert not (tmp_path / "t.csv").exists()


def _sys_c_support_1() -> dict:
    cfg = sys_c_config()
    cfg["support_set"] = [1]  # the chain also visits vertex 2
    return cfg


def _two_self_loops() -> dict:
    """Constant probabilities, but each vertex only loops to itself, so the
    vertex chain has no unique stationary law."""
    cfg = sys_c_config()
    cfg["edges"] = [e for e in cfg["edges"] if e["id"] in ("c11", "c22")]
    for e in cfg["edges"]:
        e["prob"]["alpha"] = 1.0
    return cfg


# case: (plan fields, with the word cap as "word_cap", config, failed stage,
# error, exit code)
_FAILURES = {
    "depth_over_cap": ({"word_cap": 2}, sys_a_config, "validate",
                       "DepthOverflow", 3,
                       "plan.depths: depth 3 exceeds the word cap 2"),
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
    "exact_without_stationary_law": ({"queries": []}, _two_self_loops,
                                     "validate", "ExactModeUnavailable", 2,
                                     "error at stage validate: plan.mode: "
                                     "vertex chain has no unique stationary "
                                     "distribution"),
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
    _assert_stage_seconds(manifest)
    err = capsys.readouterr().err
    assert f"error at stage {stage}:" in err
    assert message in err


def test_a_deep_depth_exits_3_within_a_second(config_a, tmp_path, capsys):
    """The word and node counts are closed forms, so a deep depth overflows
    at once, as a table flag and as a plan depth: on sys A, whose words
    double per depth; on one loop, which has one word per depth but whose
    walk would hold a word of every length; and on a loop feeding a loop,
    whose n + 2 words pass the word cap at 10^8 and whose walk passes the
    walk cap at 10^6."""
    configs = {"loop": one_loop_config(), "two": loop_into_loop_config()}
    for name, cfg in configs.items():
        configs[name] = tmp_path / f"{name}.json"
        configs[name].write_text(json.dumps(cfg))
    walk_cap = "walk cap 480000000 on depth times tree nodes"
    cases = [(config_a, 10 ** 6, "word cap 10000000"),
             (configs["loop"], 10 ** 6, walk_cap),
             (configs["loop"], 10 ** 8, walk_cap),
             (configs["two"], 10 ** 8, "word cap 10000000"),
             (configs["two"], 10 ** 6, walk_cap)]
    for config, depth, cap in cases:
        plan = _plan_a(tmp_path, config)
        plan.depths, plan.queries = [depth], []
        table = ["table", "--config", str(config), "--depth", str(depth),
                 "--mode", "exact", "--out", str(tmp_path / "deep.csv")]
        for call in (lambda: main(table), lambda: run(plan)):
            start = time.perf_counter()
            assert call() == 3
            assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert f"DepthOverflow: depth {depth} exceeds the {cap}" in err
        assert f"plan.depths: depth {depth} exceeds the {cap}" in err


@pytest.mark.parametrize("window, depth, query", [
    (23, 2, ["e1"]), (0, 24, ["e1"]), (23, 2, ["e1.e2"]), (0, 25, ["e1.e2"])])
def test_cover_window_over_word_cap_fails_at_validate(window, depth, query,
                                                      tmp_path, config_a,
                                                      capsys):
    """The base walk of a cover window, to max(cover_window, cover_depth - n)
    + 1 past a query of depth n, is decided at validate: exit 3 before any
    table is written, the message naming plan.cover_window."""
    plan = _plan_a(tmp_path, config_a)
    plan.depths, plan.cover_window, plan.cover_depth = [1, 2], window, depth
    plan.queries = [{"words": query}]
    message = "plan.cover_window: depth 24 exceeds the word cap 10000000"
    assert run(plan) == cli_mod.EXIT_BUDGET
    assert f"error at stage validate: {message}" in capsys.readouterr().err
    out = tmp_path / "out"
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert manifest["failure"] == {"stage": "validate",
                                   "error": "DepthOverflow",
                                   "message": message}
    assert not (out / "tables").exists()


def test_cover_window_past_the_window_cap_fails_at_validate(tmp_path,
                                                           config_a, capsys):
    """Sys A's whole space at depth 16 with window 1 and cover depth 16 is
    within the word cap (65,536 words), but its cover window holds 131,072
    words, whose piece masks and memo keys could take about 86 GB: validate
    refuses it within a second, exit 3, naming the query and the cover
    fields, and writes no table; the `cover` command refuses it as fast,
    naming its flags, and writes no certificate.  The same query at depth
    10 with window 0 passes (1,024 window words)."""
    plan = _plan_a(tmp_path, config_a)
    plan.depths, plan.cover_window, plan.cover_depth = [1], 1, 16
    plan.queries = [{"whole_space_depth": 16}]
    start = time.perf_counter()
    assert run(plan) == cli_mod.EXIT_BUDGET
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    fields = ("plan.queries[0], plan.cover_window, plan.cover_depth, "
              "plan.cover_budget: ")
    assert (f"error at stage validate: {fields}the cover window's 131072 "
            f"words need up to ") in err
    assert f"mask bits, past the window cap {2 ** 33}" in err
    assert not (tmp_path / "out" / "tables").exists()
    cert = tmp_path / "cert.json"
    start = time.perf_counter()
    assert main(["cover", "--config", str(config_a), "--whole-space-depth",
                 "16", "--window", "1", "--depth", "16", "--out",
                 str(cert)]) == cli_mod.EXIT_BUDGET
    assert time.perf_counter() - start < 1.0
    assert ("--window, --depth, --budget: the cover window's 131072 words"
            in capsys.readouterr().err)
    assert not cert.exists()
    system = cl.validate_system(sys_a_config())
    assert cl.cover.window_words(system, 16, 1, 16) == 2 ** 17
    plan.cover_window, plan.cover_depth = 0, 10
    plan.queries = [{"whole_space_depth": 10}]
    assert plan.validate(system) == ([10], 10)


def test_validate_checks_the_depth_a_cover_window_walks(tmp_path, config_a,
                                                        monkeypatch):
    """Validate checks one depth, the deepest of those the plan walks (each
    query's cover window reads one), under the first field that names it,
    and the run walks once, to that depth, so the searches read every
    window and charge from that walk and walk nothing of their own."""
    checked, walked = [], []
    check, walk = cli_mod.check_word_cap, cl.cylinders.walk_cylinders

    def checking(system, n, where=""):
        checked.append((where, n))
        return check(system, n, where)

    def walking(system, n, *args, **kwargs):
        walked.append(n)
        return walk(system, n, *args, **kwargs)

    monkeypatch.setattr(cli_mod, "check_word_cap", checking)
    monkeypatch.setattr(cl.cylinders, "walk_cylinders", walking)
    monkeypatch.setattr(cli_mod, "walk_cylinders", walking)
    for window, depth in ((0, 1), (1, 2), (2, 2), (0, 4), (1, 5)):
        plan = _plan_a(tmp_path, config_a)
        plan.depths, plan.kstar_depth, plan.kstar_windows = [1], 1, [0]
        plan.cover_window, plan.cover_depth = window, depth
        plan.queries = [{"whole_space_depth": 2}, {"words": ["e1.e2.e1"]},
                        {"words": ["e2"]}]
        checked.clear()
        walked.clear()
        assert run(plan) == 0
        windows = [max(window, depth - n) + 1 for n in (2, 3, 1)]
        listed = [("plan.depths: ", 1),
                  ("plan.queries[0].whole_space_depth: ", 2),
                  ("plan.kstar_depth + plan.kstar_windows[0]: ", 1)] + [
            ("plan.cover_window: ", n) for n in windows]
        deepest = max(n for _, n in listed)
        assert checked == [next(item for item in listed
                                if item[1] == deepest)]
        assert walked == [max(2, *windows)]


@pytest.mark.parametrize("workload, deepest", [
    ("mc_affine", 6), ("exact_cover", 12), ("geometry_highdim", 2)])
def test_validate_counts_each_walked_depth_once(workload, deepest, tmp_path,
                                                monkeypatch):
    """Validate counts words once, at the deepest depth it checks (the
    benchmark plans of seed 3 list 11, 18 and 6 walked depths, the deepest
    6, 12 and 2), and a depth that fails names the first field that lists
    it."""
    workloads = bench_module("workloads")
    inputs = workloads.prepare(workload, 3, tmp_path)
    plan = ExperimentPlan.from_dict(dict(inputs.plan))
    system = cl.validate_system(inputs.config)
    counted, tree_counts = [], cl.cylinders._tree_counts
    monkeypatch.setattr(cl.cylinders, "_tree_counts",
                        lambda sys_, n: counted.append(n)
                        or tree_counts(sys_, n))
    _, walked = plan.validate(system)
    assert counted == [deepest] and walked == deepest

    plan.depths = [*plan.depths, 40]
    plan.kstar_windows = [40 - plan.kstar_depth, *plan.kstar_windows]
    with pytest.raises(cl.DepthOverflow,
                       match=r"^plan\.depths: depth 40 exceeds"):
        plan.validate(system)


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
    "query_both_kinds": ("queries", [{"words": ["e1"],
                                      "whole_space_depth": "x"}],
                         "plan.queries[0] needs 'words' or "
                         "'whole_space_depth', exactly one"),
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
    manifest = json.loads((tmp_path / "out" / "MANIFEST.json").read_text())
    assert manifest["covers"][0] == {"query": 0, "nodes_explored": 1,
                                     "cover_budget": 1, "exhaustive": False}
    blob = json.loads((tmp_path / "out" / "bounds.json").read_text())
    assert not any("exhaustive" in name for name in blob["pass_flags"])


def _traced_attributes() -> list[tuple[str, str]]:
    """(owner, attribute) of every call bench/tracing.py wraps."""
    return [(owner, attr) for owner, attr, _name, _layer
            in bench_module("tracing").TRACED]


def test_every_traced_attribute_is_called_by_a_job(tmp_path, config_a,
                                                   monkeypatch):
    # A benchmark job is cli.run, verify_certificate on each certificate and
    # coding_point; if the pipeline stopped calling a library function by the
    # attribute the tracer wraps, that layer's time would silently read 0.
    # Two exceptions read 0 by design.  cli.estimate_invariant: the chain
    # sampler is gone, and the name stays, uncalled, only so that the tracer
    # can resolve it.  The measure CSV write: mu_N is
    # a function of system.json, so `run` does not write it; to_csv stays for
    # `simulate --out` and the library.
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
    assert calls.pop("cmslab.cli.estimate_invariant") == 0
    assert calls.pop("cmslab.simulate:EmpiricalMeasure.to_csv") == 0
    assert calls and all(calls.values()), calls


# a command line with a bad integer flag or one that is gone: (arguments
# after --config, environment, what the message names)
_BAD_FLAGS = {
    "table_depth_0": (["table", "--depth", "0", "--mode", "exact"], {},
                      "--depth"),
    "cover_window_negative": (["cover", "--query", "e1", "--window", "-1"], {},
                              "--window"),
    "cover_depth_0": (["cover", "--query", "e1", "--depth", "0"], {},
                      "--depth"),
    # nothing samples the chain, so no subcommand takes a sampling flag,
    # whatever its value; CMSLAB_SEED is no longer read, so with a bad value
    # set it is the gone flag that exits 2
    "simulate_samples_0": (["simulate", "--samples", "0"], {}, "--samples"),
    "simulate_seed_negative": (["simulate", "--seed", "-1"], {}, "--seed"),
    "simulate_burn_in_negative": (["simulate", "--burn-in", "-1"], {},
                                  "--burn-in"),
    "cmslab_seed_not_an_integer": (["simulate", "--samples", "10"],
                                   {"CMSLAB_SEED": "abc"}, "--samples"),
    "cmslab_seed_negative": (["simulate", "--seed", "3"],
                             {"CMSLAB_SEED": "-1"}, "--seed"),
    "bounds_samples_gone": (["bounds", "--depths", "1", "--samples", "10"],
                            {}, "--samples"),
    "table_seed_gone": (["table", "--depth", "1", "--seed", "3"], {},
                        "--seed"),
}


@pytest.mark.parametrize("case", list(_BAD_FLAGS))
def test_bad_integer_flag_or_seed_exits_2_naming_it(case, config_a, tmp_path):
    args, env, name = _BAD_FLAGS[case]
    command, rest = args[0], args[1:]
    argv = [command, "--config", str(config_a), *rest,
            "--out", str(tmp_path / "out.csv")]
    proc = _cmslab(*argv, **env)
    assert proc.returncode == 2, proc.stderr
    assert name in proc.stderr
    assert "Traceback" not in proc.stderr


# One tiny job per bench workload and three k = 1 affine draws, in a child
# process; prints each output's SHA-256, each draw's BLAS dot of weights and
# distances, and the same sum as mu.average takes it.
_BLAS_CHILD = """
import hashlib, json, sys, tempfile
from pathlib import Path
import numpy as np
sys.path.insert(0, sys.argv[1])
import cmslab as cl
import cmslab.cli
import workloads

def sha(raw):
    return hashlib.sha256(raw).hexdigest()

found, dots = {}, []
with tempfile.TemporaryDirectory() as tmp:
    for name in workloads.WORKLOADS:
        inputs = workloads.prepare(name, 0, Path(tmp) / name, tiny=True)
        system = cl.validate_system(inputs.config)
        outcome = workloads.run_job(cl, inputs, system)
        for path in sorted(inputs.out_dir.rglob("*.*")):
            blob = path.read_bytes()
            if path.name == "MANIFEST.json":
                blob = json.dumps(dict(json.loads(blob), seconds=None)).encode()
            found[f"{name}/{path.relative_to(inputs.out_dir)}"] = sha(blob)
        found[f"{name}/points"] = sha(repr(
            [(p.point.tolist(), p.error_bound) for p in outcome.points]).encode())
    for seed in (1, 2, 3):
        system = cl.validate_system(workloads.make_system(
            np.random.default_rng([seed, 9]), 1, affine=True))
        mu = cl.pushforward_measure(system)
        csv = Path(tmp) / "measure.csv"
        mu.to_csv(csv)
        found[f"draw {seed}/measure.csv"] = sha(csv.read_bytes())
        dist = np.linalg.norm(mu.points - system.base_points[mu.vertices], axis=1)
        found[f"draw {seed}/c_hat"] = repr(cl.estimate_c_hat(system, mu))
        found[f"draw {seed}/mean"] = repr(mu.mean_point().tolist())
        dots.append(repr(float(mu.weights @ dist)))
print(json.dumps({"found": found, "dots": dots, "atoms": len(mu)}))
"""


def test_outputs_do_not_depend_on_the_blas_thread_count():
    """Every file a tiny job of each bench workload writes, its coding
    points, and mu_N, c_hat and the mean point of three k = 1 affine draws
    hash the same under OPENBLAS_NUM_THREADS=1 and =2.  The draws first show
    that the host's BLAS sums a dot product in another order under the two
    settings; where it does not, nothing here could differ."""
    src = str(Path(cl.__file__).resolve().parents[1])
    runs = {}
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _BLAS_CHILD, str(ROOT / "bench")],
            capture_output=True, text=True, env=dict(
                os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        runs[threads] = json.loads(proc.stdout)
    assert runs["1"]["atoms"] == 2 ** 14
    if runs["1"]["dots"] == runs["2"]["dots"]:
        pytest.skip("this host's BLAS sums a dot product in one order under "
                    "1 and 2 threads, so no output could move with them")
    assert runs["1"]["found"] == runs["2"]["found"]
