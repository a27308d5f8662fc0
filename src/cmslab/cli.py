"""Experiment orchestration and command line entry points.

Subcommands: validate, simulate, coding, table, bounds, cover, verify-cert,
run.  A full run executes validate -> simulate -> constants -> tables ->
bounds -> covers -> consistency and writes system.json, measure.csv,
tables/depth_n.csv, bounds.json, covers/query_*.json, report.md, and a
MANIFEST.json recording the completed stages.  Exit codes: 0 success,
2 validation failure, 3 enumeration or runtime budget exceeded,
4 consistency red flag.

The seed may be overridden with the CMSLAB_SEED environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import cover as cover_mod
from .coding import backward_orbit, coding_point, parse_word
from .cylinders import (
    DEFAULT_WORD_CAP,
    EXACT,
    CylinderRows,
    CylinderSet,
    build_table,
    count_words,
    cylinder_set,
    full_cylinder_set,
    m_of_cylinder_set,
    walk_cylinders,
)
from .errors import (
    CertificateInvalid,
    CMSError,
    ConfigError,
    DepthOverflow,
    ValidationError,
)
from .model import (
    MarkovSystem,
    derive_constants,
    system_to_config,
    validate_system,
)
from .simulate import EmpiricalMeasure, estimate_invariant

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_RED_FLAG = 4

SIG_DIGITS = 12


@dataclass
class ExperimentPlan:
    """Everything a full run needs; mirrors the run subcommand flags."""

    config_path: str
    mode: str = "monte_carlo"
    seed: int = 0
    mc_samples: int = 100_000
    burn_in: int = 1000
    depths: list[int] = field(default_factory=lambda: [1, 2, 3, 4])
    kstar_windows: list[int] = field(default_factory=lambda: [0, 1, 2])
    kstar_depth: int = 3
    cover_window: int = 1
    cover_depth: int = 3
    cover_budget: int = 1_000_000
    queries: list[dict] = field(default_factory=list)
    output_dir: str = "out"
    workers: int = 1
    tail_tol: float = 1e-12
    word_cap: int = 10_000_000

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentPlan":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown plan fields: {sorted(unknown)}")
        if "config_path" not in raw:
            raise ConfigError("plan needs config_path")
        return cls(**raw)

    def validate(self, system: MarkovSystem) -> None:
        if self.mode not in ("exact", "monte_carlo"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.mode == "exact" and not system.all_constant_probabilities:
            raise ConfigError(
                "exact mode needs constant probability functions everywhere")
        if not self.depths:
            raise ConfigError("plan needs at least one table depth")
        for n in self.depths:
            if count_words(system, n) > self.word_cap:
                raise DepthOverflow(f"depth {n} exceeds the word cap")


def _fmt(x: float) -> str:
    return f"{x:.{SIG_DIGITS}g}"


def _json_dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load_config(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _resolve_query(system: MarkovSystem, raw: dict, cap: int) -> CylinderSet:
    if "words" in raw:
        return cylinder_set(system, [parse_word(w) for w in raw["words"]])
    if "whole_space_depth" in raw:
        return full_cylinder_set(system, int(raw["whole_space_depth"]), cap=cap)
    raise ConfigError(f"query needs 'words' or 'whole_space_depth': {raw}")


def _walk_once(system: MarkovSystem, measure, depths: list[int],
               kstar_depth: int, windows: list[int],
               cap: int) -> dict[int, CylinderRows]:
    """One walk of the word tree deep enough for every table depth and
    every K* window.

    Word lengths past the cap are left out; the kstar_estimate (or
    build_table) call that needs one walks for itself and raises
    DepthOverflow in its own stage.
    """
    lengths = [n for n in (*depths, *(kstar_depth + w for w in windows))
               if n >= 1 and count_words(system, n) <= cap]
    if not lengths:
        return {}
    return walk_cylinders(system, max(lengths), measure, cap=cap)


def _env_seed(seed: int) -> int:
    override = os.environ.get("CMSLAB_SEED")
    return int(override) if override is not None else seed


def run(plan: ExperimentPlan) -> int:
    """Execute the full pipeline; returns the process exit code."""
    out = Path(plan.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"stages": {}, "artifacts": []}
    seed = _env_seed(plan.seed)

    def fail(stage: str, exc: Exception, code: int) -> int:
        manifest["stages"][stage] = "failed"
        manifest["failure"] = {"stage": stage, "error": type(exc).__name__,
                               "message": str(exc)}
        _json_dump(manifest, out / "MANIFEST.json")
        print(f"error at stage {stage}: {exc}", file=_sys.stderr)
        return code

    def done(stage: str, *artifacts: str) -> None:
        manifest["stages"][stage] = "ok"
        manifest["artifacts"].extend(artifacts)

    # validate
    try:
        system = validate_system(_load_config(plan.config_path))
        plan.validate(system)
    except (ConfigError, ValidationError) as exc:
        return fail("validate", exc, EXIT_VALIDATION)
    except DepthOverflow as exc:
        return fail("validate", exc, EXIT_BUDGET)
    _json_dump(system_to_config(system), out / "system.json")
    done("validate", "system.json")

    # simulate (the constants need sampled geometry in every mode)
    mu = estimate_invariant(system, plan.mc_samples, plan.burn_in, seed)
    mu.to_csv(out / "measure.csv")
    done("simulate", "measure.csv")

    # constants
    try:
        constants = derive_constants(system, mu, plan.tail_tol)
    except CMSError as exc:
        return fail("constants", exc, 1)
    report = bounds_mod.evaluate_bounds(system, constants)
    done("constants")

    measure = EXACT if plan.mode == "exact" else mu

    # tables
    tables = {}
    tables_dir = out / "tables"
    tables_dir.mkdir(exist_ok=True)
    try:
        rows = _walk_once(system, measure, plan.depths, plan.kstar_depth,
                          plan.kstar_windows, plan.word_cap)
        for n in plan.depths:
            table = build_table(system, n, measure, cap=plan.word_cap,
                                rows=rows)
            table.to_csv(tables_dir / f"depth_{n}.csv")
            tables[n] = table
    except DepthOverflow as exc:
        return fail("tables", exc, EXIT_BUDGET)
    except CMSError as exc:
        return fail("tables", exc, 1)
    done("tables", *(f"tables/depth_{n}.csv" for n in plan.depths))

    # bounds
    try:
        for n in plan.depths:
            value, stderr = bounds_mod.kl_n(tables[n])
            report.k_n_series.append((n, value, stderr))
        for w in plan.kstar_windows:
            kval, kerr = bounds_mod.kstar_estimate(
                system, w, plan.kstar_depth, measure, cap=plan.word_cap,
                rows=rows)
            report.kstar_estimates.append((w, plan.kstar_depth, kval, kerr))
    except DepthOverflow as exc:
        return fail("bounds", exc, EXIT_BUDGET)
    except CMSError as exc:
        return fail("bounds", exc, 1)

    ks = [row[1] for row in report.k_n_series]
    sigmas = [row[2] for row in report.k_n_series]
    report.pass_flags["k_n_nonnegative"] = all(
        k >= -3.0 * s - 1e-12 for k, s in zip(ks, sigmas))
    report.pass_flags["k_n_nondecreasing"] = all(
        ks[i + 1] >= ks[i] - 3.0 * math.hypot(sigmas[i], sigmas[i + 1]) - 1e-12
        for i in range(len(ks) - 1))
    report.pass_flags["k_n_below_bound_i"] = all(
        k <= report.bound_i_value + 3.0 * s + 1e-12
        for k, s in zip(ks, sigmas))
    report.pass_flags["max_logz_below_bound_ii"] = all(
        float(max(tables[n].logz_values)) <= report.bound_ii_value
        + 3.0 * float(max(tables[n].stderrs / np.maximum(tables[n].m_values, 1e-300)))
        + 1e-12
        for n in plan.depths)
    kstar_vals = [row[2] for row in sorted(report.kstar_estimates)]
    report.pass_flags["kstar_nondecreasing_in_window"] = all(
        kstar_vals[i + 1] >= kstar_vals[i] - 1e-12
        for i in range(len(kstar_vals) - 1))
    done("bounds")

    # covers and consistency
    covers_dir = out / "covers"
    covers_dir.mkdir(exist_ok=True)
    red_flag = False
    cover_rows = []
    try:
        for qi, raw_query in enumerate(plan.queries):
            q = _resolve_query(system, raw_query, plan.word_cap)
            m_q = m_of_cylinder_set(system, q, measure)
            lower = bounds_mod.corollary_lower_bound(report, q, m_q)
            cost, candidate = cover_mod.phi_upper(
                system, q, plan.cover_window, plan.cover_depth,
                budget=plan.cover_budget)
            check = cover_mod.consistency_check(lower, cost)
            cert = cover_mod.certificate_dict(system, q, candidate)
            _json_dump(cert, covers_dir / f"query_{qi}.json")
            manifest["artifacts"].append(f"covers/query_{qi}.json")
            cover_rows.append((qi, q, m_q, lower, cost, candidate, check))
            report.pass_flags[f"consistency_query_{qi}"] = check.passed
            red_flag = red_flag or not check.passed
    except DepthOverflow as exc:
        return fail("covers", exc, EXIT_BUDGET)
    except CMSError as exc:
        return fail("covers", exc, 1)
    done("covers")

    _json_dump(report.to_dict(), out / "bounds.json")
    manifest["artifacts"].append("bounds.json")

    _write_report(out / "report.md", plan, seed, report, cover_rows)
    manifest["artifacts"].append("report.md")
    done("consistency")
    _json_dump(manifest, out / "MANIFEST.json")

    if red_flag:
        print("consistency red flag: a lower bound exceeded a cover upper "
              "bound", file=_sys.stderr)
        return EXIT_RED_FLAG
    return EXIT_OK


def _write_report(path: Path, plan: ExperimentPlan, seed: int,
                  report, cover_rows) -> None:
    lines = ["# Run report", ""]
    lines.append(f"mode: {plan.mode}; seed: {seed}; "
                 f"samples: {plan.mc_samples}; burn-in: {plan.burn_in}")
    lines.append("")
    c = report.constants
    lines.append("## Constants")
    lines.append("")
    lines.append("| quantity | value |")
    lines.append("|---|---|")
    for name, val in [("a", c.a), ("delta", c.delta), ("d", c.d), ("b", c.b),
                      ("c_hat", c.c_hat), ("c_hat_stderr", c.c_hat_stderr),
                      ("dini_sum_half", c.dini_sum_half),
                      ("dini_sum_full", c.dini_sum_full),
                      ("bound_i", report.bound_i_value),
                      ("bound_ii", report.bound_ii_value),
                      ("corollary_factor", report.corollary_factor)]:
        lines.append(f"| {name} | {_fmt(val)} |")
    lines.append("")
    lines.append("## Divergence series")
    lines.append("")
    lines.append("| depth | K_n | stderr |")
    lines.append("|---|---|---|")
    for n, v, s in report.k_n_series:
        lines.append(f"| {n} | {_fmt(v)} | {_fmt(s)} |")
    lines.append("")
    lines.append("| window | depth | K* | stderr |")
    lines.append("|---|---|---|---|")
    for w, n, v, s in report.kstar_estimates:
        lines.append(f"| {w} | {n} | {_fmt(v)} | {_fmt(s)} |")
    lines.append("")
    if cover_rows:
        lines.append("## Covers")
        lines.append("")
        lines.append("| query | M(Q) | lower bound | cover cost | margin | pass |")
        lines.append("|---|---|---|---|---|---|")
        for qi, q, m_q, lower, cost, cand, check in cover_rows:
            lines.append(
                f"| {qi} ({len(q.words)} words, depth {q.depth}) "
                f"| {_fmt(m_q[0])} | {_fmt(lower[0])} | {_fmt(cost)} "
                f"| {_fmt(check.margin)} | {'yes' if check.passed else 'NO'} |")
        lines.append("")
    lines.append("## Flags")
    lines.append("")
    for name, ok in sorted(report.pass_flags.items()):
        lines.append(f"- {name}: {'pass' if ok else 'FAIL'}")
    lines.append("")
    path.write_text("\n".join(lines))


def verify_certificate(path: str) -> bool:
    """Re-verify a certificate file; prints the verdict, returns pass/fail."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CertificateInvalid(f"cannot read certificate: {exc}") from exc
    cover_mod.verify_certificate_data(data)
    return True


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="system config JSON")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmslab",
        description="laboratory for contractive Markov systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a system config")
    _add_common(p)

    p = sub.add_parser("simulate", help="estimate the invariant measure")
    _add_common(p)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--burn-in", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="measure CSV path")

    p = sub.add_parser("coding", help="evaluate the coding map on a past word")
    _add_common(p)
    p.add_argument("--past", required=True, help="dotted edge word, deepest first")

    p = sub.add_parser("table", help="build a cylinder table")
    _add_common(p)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "monte_carlo"],
                   default="monte_carlo")
    p.add_argument("--measure", help="measure CSV (monte_carlo mode)")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--burn-in", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="table CSV path")

    p = sub.add_parser("bounds", help="constants, bound values, divergence series")
    _add_common(p)
    p.add_argument("--depths", type=int, nargs="+", default=[1, 2, 3, 4])
    p.add_argument("--windows", type=int, nargs="+", default=[0, 1, 2])
    p.add_argument("--kstar-depth", type=int, default=3)
    p.add_argument("--mode", choices=["exact", "monte_carlo"],
                   default="monte_carlo")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--burn-in", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="bounds JSON path")

    p = sub.add_parser("cover", help="search a disjoint shifted cover")
    _add_common(p)
    p.add_argument("--query", help="comma-separated dotted words")
    p.add_argument("--whole-space-depth", type=int,
                   help="cover the full depth-n space instead")
    p.add_argument("--window", type=int, default=1)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--budget", type=int, default=cover_mod.DEFAULT_BUDGET)
    p.add_argument("--out", required=True, help="certificate JSON path")

    p = sub.add_parser("verify-cert", help="re-verify a cover certificate")
    p.add_argument("--certificate", required=True)

    p = sub.add_parser("run", help="full pipeline from a plan file")
    p.add_argument("--plan", required=True, help="experiment plan JSON")
    p.add_argument("--output-dir", help="override the plan output directory")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, ValidationError) as exc:
        print(f"validation error: {exc}", file=_sys.stderr)
        return EXIT_VALIDATION
    except DepthOverflow as exc:
        print(f"budget exceeded: {exc}", file=_sys.stderr)
        return EXIT_BUDGET
    except CertificateInvalid as exc:
        print(f"certificate invalid: {exc}", file=_sys.stderr)
        return 1
    except CMSError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "validate":
        system = validate_system(_load_config(args.config))
        print(f"ok: {len(system.vertices)} vertices, {len(system.edges)} edges, "
              f"support {sorted(system.support_set)}, "
              f"contraction rate {_fmt(system.contraction_rate)}")
        return EXIT_OK

    if args.command == "simulate":
        system = validate_system(_load_config(args.config))
        mu = estimate_invariant(system, args.samples, args.burn_in,
                                _env_seed(args.seed))
        mu.to_csv(args.out)
        print(f"wrote {args.out}: {len(mu)} samples, "
              f"mean {[ _fmt(v) for v in mu.mean_point() ]}")
        return EXIT_OK

    if args.command == "coding":
        system = validate_system(_load_config(args.config))
        past = parse_word(args.past)
        result = coding_point(system, past)
        orbit = backward_orbit(system, past)
        print(f"point={','.join(_fmt(c) for c in result.point)} "
              f"error_bound={_fmt(result.error_bound)} depth={result.depth}")
        print("j," + ",".join(f"x_{i + 1}" for i in range(system.dimension)))
        for idx, x in enumerate(orbit):
            j = idx - len(orbit) + 1
            print(f"{j}," + ",".join(repr(float(c)) for c in x))
        return EXIT_OK

    if args.command == "table":
        system = validate_system(_load_config(args.config))
        measure = _measure_for(system, args)
        table = build_table(system, args.depth, measure)
        table.to_csv(args.out)
        print(f"wrote {args.out}: {len(table)} rows at depth {args.depth}")
        return EXIT_OK

    if args.command == "bounds":
        system = validate_system(_load_config(args.config))
        measure = _measure_for(system, args)
        mu = measure if isinstance(measure, EmpiricalMeasure) else \
            estimate_invariant(system, args.samples, args.burn_in,
                               _env_seed(args.seed))
        constants = derive_constants(system, mu)
        report = bounds_mod.evaluate_bounds(system, constants)
        rows = _walk_once(system, measure, args.depths, args.kstar_depth,
                          args.windows, DEFAULT_WORD_CAP)
        for n in args.depths:
            table = build_table(system, n, measure, rows=rows)
            v, s = bounds_mod.kl_n(table)
            report.k_n_series.append((n, v, s))
        for w in args.windows:
            v, s = bounds_mod.kstar_estimate(system, w, args.kstar_depth,
                                             measure, rows=rows)
            report.kstar_estimates.append((w, args.kstar_depth, v, s))
        _print_bounds(report)
        if args.out:
            _json_dump(report.to_dict(), Path(args.out))
        return EXIT_OK

    if args.command == "cover":
        system = validate_system(_load_config(args.config))
        if args.query:
            q = cylinder_set(system,
                             [parse_word(w) for w in args.query.split(",")])
        elif args.whole_space_depth:
            q = full_cylinder_set(system, args.whole_space_depth)
        else:
            raise ConfigError("cover needs --query or --whole-space-depth")
        cost, candidate = cover_mod.phi_upper(system, q, args.window,
                                              args.depth, budget=args.budget)
        _json_dump(cover_mod.certificate_dict(system, q, candidate),
                   Path(args.out))
        print(f"cost={_fmt(cost)} pieces={len(candidate.pieces)} "
              f"exhaustive={candidate.exhaustive}")
        return EXIT_OK if candidate.exhaustive else EXIT_BUDGET

    if args.command == "verify-cert":
        verify_certificate(args.certificate)
        print("certificate ok")
        return EXIT_OK

    if args.command == "run":
        plan = ExperimentPlan.from_dict(_load_config(args.plan))
        if args.output_dir:
            plan.output_dir = args.output_dir
        return run(plan)

    raise AssertionError(f"unhandled command {args.command}")


def _measure_for(system: MarkovSystem, args: argparse.Namespace):
    if args.mode == "exact":
        return EXACT
    if getattr(args, "measure", None):
        mu = EmpiricalMeasure.from_csv(args.measure)
        mu.validate_supports(system)
        return mu
    return estimate_invariant(system, args.samples, args.burn_in,
                              _env_seed(args.seed))


def _print_bounds(report) -> None:
    c = report.constants
    print("constants:")
    for name, val in [("a", c.a), ("delta", c.delta), ("d", c.d), ("b", c.b),
                      ("c_hat", c.c_hat), ("dini_sum_half", c.dini_sum_half),
                      ("dini_sum_full", c.dini_sum_full)]:
        print(f"  {name:>14} = {_fmt(val)}")
    print(f"  {'bound_i':>14} = {_fmt(report.bound_i_value)}")
    print(f"  {'bound_ii':>14} = {_fmt(report.bound_ii_value)}")
    print(f"  {'cor_factor':>14} = {_fmt(report.corollary_factor)}")
    print("K_n series:")
    for n, v, s in report.k_n_series:
        print(f"  n={n}: {_fmt(v)} (stderr {_fmt(s)})")
    print("K* estimates:")
    for w, n, v, s in report.kstar_estimates:
        print(f"  W={w}, n={n}: {_fmt(v)} (stderr {_fmt(s)})")


if __name__ == "__main__":
    raise SystemExit(main())
