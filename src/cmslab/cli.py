"""Experiment orchestration and command line entry points.

Subcommands: validate, simulate, coding, table, bounds, cover, verify-cert,
run.  `run` executes STAGES, validate -> simulate -> constants -> tables ->
bounds -> covers -> consistency, and writes system.json, measure.csv,
tables/depth_n.csv, bounds.json, covers/query_*.json, report.md and a
MANIFEST.json recording the stages; `bounds` executes the first five.  Exit
codes: 0 success, 1 any other cmslab error (an inadmissible flag word, an
invalid certificate, ...), 2 invalid config or plan, 3 enumeration or runtime
budget exceeded, 4 consistency red flag.

The seed may be overridden with the CMSLAB_SEED environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import cover as cover_mod
from . import cylinders as cylinders_mod
from .coding import coding_point, parse_word
from .cylinders import (
    EXACT,
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
    InadmissibleWord,
    ValidationError,
)
from .model import (
    MarkovSystem,
    derive_constants,
    json_field,
    json_int,
    json_list,
    json_object,
    system_to_config,
    validate_system,
)
from .simulate import EmpiricalMeasure, estimate_invariant

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_RED_FLAG = 4

SIG_DIGITS = 12

# the smallest value of each integer plan field
_PLAN_MINIMUMS = {"seed": 0, "mc_samples": 1, "burn_in": 0, "kstar_depth": 1,
                  "cover_window": 0, "cover_depth": 1, "cover_budget": 1}


def _at_least(minimum: int):
    return lambda value: json_int(value, minimum)


def _string(value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"expected a string, got {value!r}")
    return value


@dataclass
class ExperimentPlan:
    """Everything a full run needs, as the plan file gives it."""

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

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentPlan":
        """A plan from JSON; run reads the two paths before validating."""
        json_object(raw, set(cls.__dataclass_fields__), "plan")
        json_field(raw, "config_path", "plan", _string)
        json_field(raw, "output_dir", "plan", _string, default=None)
        return cls(**raw)

    def validate(self, system: MarkovSystem) -> list[CylinderSet | None]:
        """Check each field's type and range, then what the system
        constrains; every error names its field.  Returns each query's
        cylinder set, None for a whole-space query."""
        fields = vars(self)
        for key, minimum in _PLAN_MINIMUMS.items():
            json_field(fields, key, "plan", _at_least(minimum))
        depths = json_field(fields, "depths", "plan",
                            lambda v: json_list(v, _at_least(1)))
        json_field(fields, "kstar_windows", "plan",
                   lambda v: json_list(v, _at_least(0)))
        queries = []
        for i, query in enumerate(json_field(fields, "queries", "plan", json_list)):
            where = f"plan.queries[{i}]"
            json_object(query, {"words", "whole_space_depth"}, where)
            if "words" in query:
                queries.append(json_field(query, "words", where,
                                          lambda v: _query_set(system, v)))
            elif "whole_space_depth" in query:
                json_field(query, "whole_space_depth", where, _at_least(1))
                queries.append(None)
            else:
                raise ConfigError(f"{where} needs 'words' or 'whole_space_depth'")
        if self.mode not in ("exact", "monte_carlo"):
            raise ConfigError(f"plan.mode: unknown mode {self.mode!r}")
        if self.mode == "exact" and not system.all_constant_probabilities:
            raise ConfigError("plan.mode: exact mode needs constant "
                              "probability functions everywhere")
        if not depths:
            raise ConfigError("plan.depths: needs at least one table depth")
        # every word of these depths is walked; query words are only followed
        capped = [("plan.depths", n) for n in depths] + [
            (f"plan.queries[{i}].whole_space_depth", q["whole_space_depth"])
            for i, q in enumerate(self.queries) if "words" not in q]
        for where, n in capped:
            if count_words(system, n) > cylinders_mod.WORD_CAP:
                raise DepthOverflow(f"{where}: depth {n} exceeds the word cap "
                                    f"{cylinders_mod.WORD_CAP}")
        return queries


def _query_set(system: MarkovSystem, value) -> CylinderSet:
    """The cylinder set of a query's dotted words."""
    try:
        return cylinder_set(system, [parse_word(w)
                                     for w in json_list(value, _string)])
    except InadmissibleWord as exc:
        raise ConfigError(str(exc)) from None


def _fmt(x: float) -> str:
    return f"{x:.{SIG_DIGITS}g}"


def _json_dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load_config(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, TypeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _env_seed(seed: int) -> int:
    """CMSLAB_SEED if it is set, else `seed`."""
    return json_field(os.environ, "CMSLAB_SEED", "",
                      lambda v: json_int(int(v), _PLAN_MINIMUMS["seed"]),
                      default=seed)


def _exit_code(exc: CMSError) -> int:
    """The one mapping from a cmslab error to the process exit code."""
    if isinstance(exc, (ConfigError, ValidationError)):
        return EXIT_VALIDATION
    if isinstance(exc, DepthOverflow):
        return EXIT_BUDGET
    return EXIT_ERROR


# ---------------------------------------------------------------------------
# pipeline stages

@dataclass
class _Context:
    """What the stages share; with no output directory they write nothing."""

    plan: ExperimentPlan
    out: Path | None
    seed: int
    manifest: dict = field(default_factory=lambda: {"stages": {}, "artifacts": []})
    system: MarkovSystem | None = None
    mu: EmpiricalMeasure | None = None
    measure: object = None
    report: bounds_mod.BoundReport | None = None
    queries: list = field(default_factory=list)
    rows: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    cover_rows: list = field(default_factory=list)

    def save(self, name: str, write) -> None:
        """write(path) the artifact `name` under the output directory."""
        if self.out is not None:
            path = self.out / name
            path.parent.mkdir(exist_ok=True)
            write(path)
            self.manifest["artifacts"].append(name)


def _validate(ctx: _Context) -> None:
    ctx.seed = _env_seed(ctx.seed)
    ctx.system = validate_system(_load_config(ctx.plan.config_path))
    ctx.queries = ctx.plan.validate(ctx.system)
    ctx.save("system.json",
             lambda path: _json_dump(system_to_config(ctx.system), path))


def _simulate(ctx: _Context) -> None:
    # the constants need sampled geometry in every mode
    plan = ctx.plan
    ctx.mu = estimate_invariant(ctx.system, plan.mc_samples, plan.burn_in,
                                ctx.seed)
    ctx.save("measure.csv", ctx.mu.to_csv)
    ctx.measure = EXACT if plan.mode == "exact" else ctx.mu


def _constants(ctx: _Context) -> None:
    ctx.report = bounds_mod.evaluate_bounds(
        ctx.system, derive_constants(ctx.system, ctx.mu))


def _tables(ctx: _Context) -> None:
    """Every table depth, the K* windows' words and the query words from one
    walk of the word tree.  Past the deepest table, K* length or whole-space
    query the walk follows only the query words.  A K* length past the cap
    is left to kstar_estimate, which raises DepthOverflow in the bounds
    stage."""
    plan, system = ctx.plan, ctx.system
    whole = [q["whole_space_depth"] for q in plan.queries if "words" not in q]
    lengths = [n for n in (*plan.depths, *whole,
                           *(plan.kstar_depth + w for w in plan.kstar_windows))
               if count_words(system, n) <= cylinders_mod.WORD_CAP]
    words = [w for q in ctx.queries if q for w in q.words]
    ctx.rows = walk_cylinders(system, max(lengths), ctx.measure, along=words)
    for n in plan.depths:
        ctx.tables[n] = build_table(system, n, ctx.measure, rows=ctx.rows)
        ctx.save(f"tables/depth_{n}.csv", ctx.tables[n].to_csv)


def _bounds(ctx: _Context) -> None:
    plan, report, tables = ctx.plan, ctx.report, ctx.tables
    for n in plan.depths:
        report.k_n_series.append((n, *bounds_mod.kl_n(tables[n])))
    for w in plan.kstar_windows:
        kval, kerr = bounds_mod.kstar_estimate(
            ctx.system, w, plan.kstar_depth, ctx.measure, rows=ctx.rows)
        report.kstar_estimates.append((w, plan.kstar_depth, kval, kerr))

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


def _covers(ctx: _Context) -> None:
    plan, system, report = ctx.plan, ctx.system, ctx.report
    for qi, (raw, q) in enumerate(zip(plan.queries, ctx.queries)):
        q = q or full_cylinder_set(system, raw["whole_space_depth"])
        m_q = m_of_cylinder_set(system, q, ctx.measure, rows=ctx.rows)
        lower = bounds_mod.corollary_lower_bound(report, q, m_q)
        cost, candidate = cover_mod.phi_upper(
            system, q, plan.cover_window, plan.cover_depth,
            budget=plan.cover_budget)
        check = cover_mod.consistency_check(lower, cost)
        cert = cover_mod.certificate_dict(system, q, candidate)
        ctx.save(f"covers/query_{qi}.json",
                 lambda path: _json_dump(cert, path))
        ctx.cover_rows.append((qi, q, m_q, lower, cost, candidate, check))
        report.pass_flags[f"consistency_query_{qi}"] = check.passed


def _consistency(ctx: _Context) -> None:
    ctx.save("bounds.json", lambda path: _json_dump(ctx.report.to_dict(), path))
    ctx.save("report.md", lambda path: _write_report(path, ctx))


# the pipeline; each stage is named after its function, less the underscore
STAGES = (_validate, _simulate, _constants, _tables, _bounds, _covers,
          _consistency)


def _run_stages(ctx: _Context, stages) -> int:
    """Run stages in order, recording each in the manifest; stop at the
    first cmslab error and return its exit code."""
    for stage in stages:
        name = stage.__name__[1:]
        try:
            stage(ctx)
        except CMSError as exc:
            ctx.manifest["stages"][name] = "failed"
            ctx.manifest["failure"] = {
                "stage": name, "error": type(exc).__name__, "message": str(exc)}
            print(f"error at stage {name}: {exc}", file=_sys.stderr)
            return _exit_code(exc)
        ctx.manifest["stages"][name] = "ok"
    return EXIT_OK


def run(plan: ExperimentPlan) -> int:
    """Execute the full pipeline; returns the process exit code."""
    out = Path(plan.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    ctx = _Context(plan, out, plan.seed)
    code = _run_stages(ctx, STAGES)
    _json_dump(ctx.manifest, out / "MANIFEST.json")
    if code == EXIT_OK and not all(row[-1].passed for row in ctx.cover_rows):
        print("consistency red flag: a lower bound exceeded a cover upper "
              "bound", file=_sys.stderr)
        return EXIT_RED_FLAG
    return code


def _constant_rows(report) -> list[tuple[str, float]]:
    return [*asdict(report.constants).items(),
            ("bound_i", report.bound_i_value),
            ("bound_ii", report.bound_ii_value),
            ("corollary_factor", report.corollary_factor)]


def _write_report(path: Path, ctx: _Context) -> None:
    plan, report = ctx.plan, ctx.report
    lines = ["# Run report", "",
             f"mode: {plan.mode}; seed: {ctx.seed}; "
             f"samples: {plan.mc_samples}; burn-in: {plan.burn_in}", "",
             "## Constants", "", "| quantity | value |", "|---|---|"]
    lines += [f"| {name} | {_fmt(val)} |" for name, val in _constant_rows(report)]
    lines += ["", "## Divergence series", "", "| depth | K_n | stderr |",
              "|---|---|---|"]
    lines += [f"| {n} | {_fmt(v)} | {_fmt(s)} |" for n, v, s in report.k_n_series]
    lines += ["", "| window | depth | K* | stderr |", "|---|---|---|---|"]
    lines += [f"| {w} | {n} | {_fmt(v)} | {_fmt(s)} |"
              for w, n, v, s in report.kstar_estimates]
    lines.append("")
    if ctx.cover_rows:
        lines += ["## Covers", "",
                  "| query | M(Q) | lower bound | cover cost | margin | pass "
                  "| exhaustive |", "|---|---|---|---|---|---|---|"]
        lines += [f"| {qi} ({len(q.words)} words, depth {q.depth}) "
                  f"| {_fmt(m_q[0])} | {_fmt(lower[0])} | {_fmt(cost)} "
                  f"| {_fmt(check.margin)} | {'yes' if check.passed else 'NO'} "
                  f"| {'yes' if cand.exhaustive else 'no'} |"
                  for qi, q, m_q, lower, cost, cand, check in ctx.cover_rows]
        lines.append("")
    lines += ["## Flags", ""]
    lines += [f"- {name}: {'pass' if ok else 'FAIL'}"
              for name, ok in sorted(report.pass_flags.items())]
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

def _flag(minimum: int):
    """argparse type: an integer at least `minimum`, as the plan checks it,
    so a bad value exits 2 with argparse's usage message."""
    def parse(text: str) -> int:
        try:
            return json_int(int(text), minimum)
        except (ValueError, ConfigError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="system config JSON")


def _add_sampling(p: argparse.ArgumentParser) -> None:
    p.add_argument("--samples", type=_flag(_PLAN_MINIMUMS["mc_samples"]),
                   default=100_000)
    p.add_argument("--burn-in", type=_flag(_PLAN_MINIMUMS["burn_in"]),
                   default=1000)
    p.add_argument("--seed", type=_flag(_PLAN_MINIMUMS["seed"]), default=0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmslab",
        description="laboratory for contractive Markov systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a system config")
    _add_common(p)

    p = sub.add_parser("simulate", help="estimate the invariant measure")
    _add_common(p)
    _add_sampling(p)
    p.add_argument("--out", required=True, help="measure CSV path")

    p = sub.add_parser("coding", help="evaluate the coding map on a past word")
    _add_common(p)
    p.add_argument("--past", required=True, help="dotted edge word, deepest first")

    p = sub.add_parser("table", help="build a cylinder table")
    _add_common(p)
    _add_sampling(p)
    p.add_argument("--depth", type=_flag(1), required=True)
    p.add_argument("--mode", choices=["exact", "monte_carlo"],
                   default="monte_carlo")
    p.add_argument("--measure", help="measure CSV (monte_carlo mode)")
    p.add_argument("--out", required=True, help="table CSV path")

    p = sub.add_parser("bounds", help="constants, bound values, divergence series")
    _add_common(p)
    _add_sampling(p)
    p.add_argument("--depths", type=_flag(1), nargs="+", default=[1, 2, 3, 4])
    p.add_argument("--windows", type=_flag(0), nargs="+", default=[0, 1, 2])
    p.add_argument("--kstar-depth", type=_flag(_PLAN_MINIMUMS["kstar_depth"]),
                   default=3)
    p.add_argument("--mode", choices=["exact", "monte_carlo"],
                   default="monte_carlo")
    p.add_argument("--out", help="bounds JSON path")

    p = sub.add_parser("cover", help="search a disjoint shifted cover")
    _add_common(p)
    p.add_argument("--query", help="comma-separated dotted words")
    p.add_argument("--whole-space-depth", type=_flag(1),
                   help="cover the full depth-n space instead")
    p.add_argument("--window", type=_flag(_PLAN_MINIMUMS["cover_window"]),
                   default=1)
    p.add_argument("--depth", type=_flag(_PLAN_MINIMUMS["cover_depth"]),
                   default=3)
    p.add_argument("--budget", type=_flag(_PLAN_MINIMUMS["cover_budget"]),
                   default=cover_mod.DEFAULT_BUDGET)
    p.add_argument("--out", required=True, help="certificate JSON path")

    p = sub.add_parser("verify-cert", help="re-verify a cover certificate")
    p.add_argument("--certificate", required=True)

    p = sub.add_parser("run", help="full pipeline from a plan file")
    p.add_argument("--plan", required=True, help="experiment plan JSON")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except CMSError as exc:
        print(f"{type(exc).__name__}: {exc}", file=_sys.stderr)
        return _exit_code(exc)


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
        result = coding_point(system, parse_word(args.past))
        print(f"point={','.join(_fmt(c) for c in result.point)} "
              f"error_bound={_fmt(result.error_bound)} depth={result.depth}")
        print("j," + ",".join(f"x_{i + 1}" for i in range(system.dimension)))
        for j, x in enumerate(result.orbit, start=1 - result.depth):
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
        plan = ExperimentPlan(
            config_path=args.config, mode=args.mode, seed=args.seed,
            mc_samples=args.samples, burn_in=args.burn_in, depths=args.depths,
            kstar_windows=args.windows, kstar_depth=args.kstar_depth)
        ctx = _Context(plan, None, args.seed)
        code = _run_stages(ctx, STAGES[:5])
        if code == EXIT_OK:
            _print_bounds(ctx.report)
            if args.out:
                _json_dump(ctx.report.to_dict(), Path(args.out))
        return code

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
        return run(ExperimentPlan.from_dict(_load_config(args.plan)))

    raise AssertionError(f"unhandled command {args.command}")


def _measure_for(system: MarkovSystem, args: argparse.Namespace):
    if args.mode == "exact":
        return EXACT
    if args.measure:
        mu = EmpiricalMeasure.from_csv(args.measure)
        mu.validate_supports(system)
        return mu
    return estimate_invariant(system, args.samples, args.burn_in,
                              _env_seed(args.seed))


def _print_bounds(report) -> None:
    print("constants:")
    for name, val in _constant_rows(report):
        print(f"  {name:>16} = {_fmt(val)}")
    print("K_n series:")
    for n, v, s in report.k_n_series:
        print(f"  n={n}: {_fmt(v)} (stderr {_fmt(s)})")
    print("K* estimates:")
    for w, n, v, s in report.kstar_estimates:
        print(f"  W={w}, n={n}: {_fmt(v)} (stderr {_fmt(s)})")


if __name__ == "__main__":
    raise SystemExit(main())
