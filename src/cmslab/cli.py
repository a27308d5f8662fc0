"""Experiment orchestration and command line entry points.

Subcommands: validate, simulate, coding, table, bounds, cover, verify-cert,
run.  `run` executes STAGES, validate -> simulate -> constants -> tables ->
bounds -> covers -> consistency, and writes system.json, tables/depth_n.csv,
bounds.json, covers/query_*.json, report.md and a MANIFEST.json recording
the stages, their wall and CPU seconds, mu_N's levels and atoms, the words
walked per depth and each cover search's node count;
`bounds` executes the first five and prints the report `run` writes to
report.md; it has no queries, so its report has no covers section.  Exit
codes: 0 success (a cover search cut short by its budget included: its
cover is still an upper bound), 1 any other cmslab error (an inadmissible
flag word, an invalid certificate, an output path that cannot be written,
...), 2 invalid config or plan, 3 word cap exceeded, 4 consistency red
flag; an error prints one line.  A config, plan or certificate file that
cannot be read or decoded as JSON is invalid, and its line names the file.
The validate stage decides exact mode and the word cap of every depth a run
walks; the subcommands check --out before any work.

The simulate stage builds mu_N, the base points pushed forward to the
deepest level within simulate.ATOM_CAP, in both modes: it gives c_hat, and
in monte_carlo mode also the chain mass M.  It is deterministic, so no
command takes a seed.  mu_N is a function of system.json, so `run` does not
write its atoms; the simulate subcommand does.  The stderr column of the
tables and the last slot of the bounds.json series rows are always 0.0,
kept for their readers.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys as _sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import bounds as bounds_mod
from . import cover as cover_mod
from .coding import coding_point, parse_word
from .cylinders import (
    EXACT,
    CylinderSet,
    Walk,
    build_table,
    check_word_cap,
    cylinder_set,
    full_cylinder_set,
    m_of_cylinder_set,
    stationary_vertex_distribution,
    walk_cylinders,
)
from .errors import (
    CertificateInvalid,
    CMSError,
    ConfigError,
    ConsistencyRedFlag,
    DepthOverflow,
    ExactModeUnavailable,
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
from .simulate import EmpiricalMeasure, c_hat_gap, pushforward_measure

# Nothing calls this name.  The benchmark's tracer (bench/tracing.py TRACED)
# wraps cmslab.cli.estimate_invariant, and Tracer.install raises
# AttributeError without it, so every traced benchmark run would fail.
estimate_invariant = pushforward_measure

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
    """Everything a full run needs, as the plan file gives it.  `seed`,
    `mc_samples` and `burn_in` are range-checked but no longer read: the
    run's measure is the deterministic pushforward."""

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
    cover_budget: int = cover_mod.DEFAULT_BUDGET
    queries: list[dict] = field(default_factory=list)
    output_dir: str = "out"

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentPlan":
        """A plan from JSON; run reads the two paths before validating."""
        json_object(raw, set(cls.__dataclass_fields__), "plan")
        json_field(raw, "config_path", "plan", _string)
        json_field(raw, "output_dir", "plan", _string, default=None)
        return cls(**raw)

    def validate(self, system: MarkovSystem) -> tuple[list, int]:
        """Check each field, exact mode, the word cap of the deepest
        walked depth, counted once, and each query's cover window cap, so
        no later stage does; every error names its fields.  Returns each
        query's cylinder set (or a whole-space query's depth) and that
        depth, to which the run walks every word."""
        fields = vars(self)
        for key, minimum in _PLAN_MINIMUMS.items():
            json_field(fields, key, "plan", _at_least(minimum))
        depths = json_field(fields, "depths", "plan",
                            lambda v: json_list(v, _at_least(1)))
        windows = json_field(fields, "kstar_windows", "plan",
                             lambda v: json_list(v, _at_least(0)))
        queries = []
        for i, query in enumerate(json_field(fields, "queries", "plan", json_list)):
            where = f"plan.queries[{i}]"
            json_object(query, {"words", "whole_space_depth"}, where)
            if len(query) != 1:
                raise ConfigError(f"{where} needs 'words' or "
                                  f"'whole_space_depth', exactly one")
            if "words" in query:
                queries.append(json_field(query, "words", where,
                                          lambda v: _query_set(system, v)))
            else:
                queries.append(json_field(query, "whole_space_depth", where,
                                          _at_least(1)))
        if self.mode not in ("exact", "monte_carlo"):
            raise ConfigError(f"plan.mode: unknown mode {self.mode!r}")
        if self.mode == "exact":
            stationary_vertex_distribution(system, "plan.mode: ")
        if not depths:
            raise ConfigError("plan.depths: needs at least one table depth")
        # the run walks every word to the deepest of these depths and folds
        # query words past it.  validate_system gives every vertex an
        # out-edge, so words and tree nodes never fall as the depth grows:
        # one check of the deepest depth, under the first field that lists
        # it, covers every shallower one
        query_depths = [q if isinstance(q, int) else q.depth for q in queries]
        walked = [("plan.depths", n) for n in depths] + [
            (f"plan.queries[{i}].whole_space_depth", q)
            for i, q in enumerate(queries) if isinstance(q, int)] + [
            (f"plan.kstar_depth + plan.kstar_windows[{i}]",
             self.kstar_depth + w) for i, w in enumerate(windows)] + [
            ("plan.cover_window", cover_mod.window_depth(
                n, self.cover_window, self.cover_depth)) for n in query_depths]
        where, deepest = max(walked, key=lambda listed: listed[1])
        check_word_cap(system, deepest, f"{where}: ")
        for i, q in enumerate(queries):
            cover_mod.check_window_cap(
                system, q, self.cover_window, self.cover_depth,
                self.cover_budget, f"plan.queries[{i}], plan.cover_window, "
                f"plan.cover_depth, plan.cover_budget: ")
        return queries, deepest


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


def _read_json(path: str, error: type[CMSError] = ConfigError):
    """The JSON of a config, plan or certificate file, all read here: one that
    cannot be read or decoded (bad bytes, deep nesting) raises `error`."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, TypeError, ValueError, RecursionError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def _exit_code(exc: CMSError | OSError) -> int:
    """The one mapping from a cmslab or OS error to the process exit code."""
    if isinstance(exc, (ConfigError, ValidationError, ExactModeUnavailable)):
        return EXIT_VALIDATION
    if isinstance(exc, DepthOverflow):
        return EXIT_BUDGET
    if isinstance(exc, ConsistencyRedFlag):
        return EXIT_RED_FLAG
    return EXIT_ERROR


# ---------------------------------------------------------------------------
# pipeline stages

@dataclass
class _Context:
    """What the stages share; with no output directory they write nothing."""

    plan: ExperimentPlan
    out: Path | None
    manifest: dict = field(default_factory=lambda: {
        "stages": {}, "seconds": {}, "counts": {}, "artifacts": []})
    system: MarkovSystem | None = None
    mu: EmpiricalMeasure | None = None
    report: bounds_mod.BoundReport | None = None
    queries: list = field(default_factory=list)
    depth: int = 0  # the run's walk is complete to it
    walk: Walk | None = None
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
    ctx.system = validate_system(_read_json(ctx.plan.config_path))
    ctx.queries, ctx.depth = ctx.plan.validate(ctx.system)
    ctx.save("system.json",
             lambda path: _json_dump(system_to_config(ctx.system), path))


def _simulate(ctx: _Context) -> None:
    # c_hat integrates over the invariant measure in every mode
    ctx.mu = pushforward_measure(ctx.system)
    ctx.manifest["counts"]["simulate"] = {"levels": ctx.mu.levels,
                                          "atoms": len(ctx.mu)}


def _constants(ctx: _Context) -> None:
    system, mu = ctx.system, ctx.mu
    constants = derive_constants(system, mu)
    ctx.report = bounds_mod.evaluate_bounds(system, constants)
    ctx.report.measure = {"levels": mu.levels, "atoms": len(mu),
                          "c_hat_gap": c_hat_gap(system, mu, constants.c_hat)}


def _tables(ctx: _Context) -> None:
    """The run's one walk, under the run's measure, of every word to the
    deepest depth validate checked; every table, K* window, M(Q),
    whole-space query, cover window and charge is read from it, and a query
    word past its depth is folded (Walk.along)."""
    measure = EXACT if ctx.plan.mode == "exact" else ctx.mu
    ctx.walk = walk_cylinders(ctx.system, ctx.depth, measure)
    ctx.manifest["counts"]["tables"] = {
        "words_per_depth": [[n, len(rows)]
                            for n, rows in ctx.walk.rows.items()]}
    for n in ctx.plan.depths:
        ctx.tables[n] = build_table(ctx.walk, n)
        ctx.save(f"tables/depth_{n}.csv", ctx.tables[n].to_csv)


def _bounds(ctx: _Context) -> None:
    plan, report, tables = ctx.plan, ctx.report, ctx.tables
    # the 0.0 slots are kept for readers of bounds.json (BoundReport)
    for n in plan.depths:
        report.k_n_series.append((n, bounds_mod.kl_n(tables[n]), 0.0))
    for w in plan.kstar_windows:
        kval = bounds_mod.kstar_estimate(ctx.system, w, plan.kstar_depth,
                                         ctx.walk)
        report.kstar_estimates.append((w, plan.kstar_depth, kval, 0.0))

    # the rows stay in plan order; K_n must not fall as the depth grows
    ks = [row[1] for row in sorted(report.k_n_series)]
    report.pass_flags["k_n_nonnegative"] = all(k >= -1e-12 for k in ks)
    report.pass_flags["k_n_nondecreasing"] = all(
        ks[i + 1] >= ks[i] - 1e-12 for i in range(len(ks) - 1))
    report.pass_flags["k_n_below_bound_i"] = all(
        k <= report.bound_i_value + 1e-12 for k in ks)
    report.pass_flags["max_logz_below_bound_ii"] = all(
        float(tables[n].logz_values.max()) <= report.bound_ii_value + 1e-12
        for n in plan.depths)
    kstar_vals = [row[2] for row in sorted(report.kstar_estimates)]
    report.pass_flags["kstar_nondecreasing_in_window"] = all(
        kstar_vals[i + 1] >= kstar_vals[i] - 1e-12
        for i in range(len(kstar_vals) - 1))


def _covers(ctx: _Context) -> None:
    plan, system, report = ctx.plan, ctx.system, ctx.report
    for qi, q in enumerate(ctx.queries):
        if isinstance(q, int):  # _tables walked every word of its depth
            q = CylinderSet(words=ctx.walk.rows[q].words)
        m_q = m_of_cylinder_set(ctx.walk, q)
        lower = bounds_mod.corollary_lower_bound(report, m_q)
        cost, candidate = cover_mod.phi_upper(
            ctx.walk, q, plan.cover_window, plan.cover_depth,
            budget=plan.cover_budget)
        check = cover_mod.consistency_check(lower, cost)
        cert = cover_mod.certificate_dict(system, q, candidate)
        ctx.save(f"covers/query_{qi}.json",
                 lambda path: _json_dump(cert, path))
        ctx.cover_rows.append((qi, q, m_q, lower, cost, candidate, check))
        ctx.manifest.setdefault("covers", []).append({
            "query": qi, "nodes_explored": candidate.nodes_explored,
            "cover_budget": plan.cover_budget,
            "exhaustive": candidate.exhaustive})
        report.pass_flags[f"consistency_query_{qi}"] = check.passed


def _consistency(ctx: _Context) -> None:
    ctx.save("bounds.json", lambda path: _json_dump(ctx.report.to_dict(), path))
    ctx.save("report.md", lambda path: path.write_text(_report_text(ctx)))
    failed = [qi for qi, *_, check in ctx.cover_rows if not check.passed]
    if failed:
        raise ConsistencyRedFlag(f"queries {failed}: lower bound above the cover cost")


# the pipeline; each stage is named after its function, less the underscore
STAGES = (_validate, _simulate, _constants, _tables, _bounds, _covers,
          _consistency)


def _run_stages(ctx: _Context, stages) -> int:
    """Run stages in order, recording each in the manifest with its wall
    and CPU seconds; stop at the first exception and record it as the
    failure.  A cmslab error, or an OS error writing an artifact, returns
    its exit code; any other exception propagates."""
    for stage in stages:
        name = stage.__name__[1:]
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            stage(ctx)
        except BaseException as exc:
            ctx.manifest["stages"][name] = "failed"
            ctx.manifest["failure"] = {
                "stage": name, "error": type(exc).__name__, "message": str(exc)}
            if not isinstance(exc, (CMSError, OSError)):
                raise
            print(f"error at stage {name}: {exc}", file=_sys.stderr)
            return _exit_code(exc)
        finally:
            ctx.manifest["seconds"][name] = {
                "wall": time.perf_counter() - wall,
                "cpu": time.process_time() - cpu}
        ctx.manifest["stages"][name] = "ok"
    return EXIT_OK


def run(plan: ExperimentPlan) -> int:
    """Execute the full pipeline; returns the process exit code.
    MANIFEST.json is written whatever ends the run."""
    out = Path(plan.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    ctx = _Context(plan, out)
    try:
        return _run_stages(ctx, STAGES)
    finally:
        _json_dump(ctx.manifest, out / "MANIFEST.json")


def _report_text(ctx: _Context) -> str:
    """The bound report: `run` writes it to report.md, `bounds` prints it."""
    plan, report = ctx.plan, ctx.report
    levels, atoms, gap = (report.measure[key]
                          for key in ("levels", "atoms", "c_hat_gap"))
    constants = [*asdict(report.constants).items(),
                 ("bound_i", report.bound_i_value),
                 ("bound_ii", report.bound_ii_value),
                 ("corollary_factor", report.corollary_factor)]
    lines = ["# Run report", "",
             f"mode: {plan.mode}; measure: mu_{levels}, the base points pushed "
             f"forward {levels} levels ({atoms} atoms); c_hat gap from "
             f"mu_{levels - 2}: {'n/a' if gap is None else _fmt(gap)}", "",
             "## Constants", "", "| quantity | value |", "|---|---|"]
    lines += [f"| {name} | {_fmt(val)} |" for name, val in constants]
    lines += ["", "## Divergence series", "", "| depth | K_n |", "|---|---|"]
    lines += [f"| {n} | {_fmt(v)} |" for n, v, _ in report.k_n_series]
    lines += ["", "| window | depth | K* |", "|---|---|---|"]
    lines += [f"| {w} | {n} | {_fmt(v)} |"
              for w, n, v, _ in report.kstar_estimates]
    lines.append("")
    if ctx.cover_rows:
        lines += ["## Covers", "",
                  "| query | M(Q) | lower bound | cover cost | margin | pass "
                  "| exhaustive |", "|---|---|---|---|---|---|---|"]
        lines += [f"| {qi} ({len(q.words)} words, depth {q.depth}) "
                  f"| {_fmt(m_q)} | {_fmt(lower)} | {_fmt(cost)} "
                  f"| {_fmt(check.margin)} | {'yes' if check.passed else 'NO'} "
                  f"| {'yes' if cand.exhaustive else 'no'} |"
                  for qi, q, m_q, lower, cost, cand, check in ctx.cover_rows]
        lines.append("")
    lines += ["## Flags", ""]
    lines += [f"- {name}: {'pass' if ok else 'FAIL'}"
              for name, ok in sorted(report.pass_flags.items())]
    lines.append("")
    return "\n".join(lines)


def verify_certificate(path: str) -> bool:
    """Re-verify a certificate file; prints nothing, returns True or raises."""
    cover_mod.verify_certificate_data(_read_json(path, CertificateInvalid))
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


def _plan_default(name: str):
    """The plan's default for field `name`, read by the flag that sets it."""
    return getattr(ExperimentPlan(config_path=""), name)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="system config JSON")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmslab",
        description="laboratory for contractive Markov systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a system config")
    _add_common(p)

    p = sub.add_parser("simulate", help="write the atoms of the pushforward "
                       "measure mu_N")
    _add_common(p)
    p.add_argument("--out", required=True, help="measure CSV path")

    p = sub.add_parser("coding", help="evaluate the coding map on a past word")
    _add_common(p)
    p.add_argument("--past", required=True, help="dotted edge word, deepest first")

    p = sub.add_parser("table", help="build a cylinder table")
    _add_common(p)
    p.add_argument("--depth", type=_flag(1), required=True)
    p.add_argument("--mode", choices=["exact", "monte_carlo"],
                   default=_plan_default("mode"))
    p.add_argument("--out", required=True, help="table CSV path")

    p = sub.add_parser("bounds", help="constants, bound values, divergence series")
    _add_common(p)
    p.add_argument("--depths", type=_flag(1), nargs="+",
                   default=_plan_default("depths"))
    p.add_argument("--windows", type=_flag(0), nargs="+",
                   default=_plan_default("kstar_windows"))
    p.add_argument("--kstar-depth", type=_flag(_PLAN_MINIMUMS["kstar_depth"]),
                   default=_plan_default("kstar_depth"))
    p.add_argument("--mode", choices=["exact", "monte_carlo"],
                   default=_plan_default("mode"))
    p.add_argument("--out", help="bounds JSON path")

    p = sub.add_parser("cover", help="search a disjoint shifted cover")
    _add_common(p)
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--query", help="comma-separated dotted words")
    kind.add_argument("--whole-space-depth", type=_flag(1),
                      help="cover the full depth-n space instead")
    p.add_argument("--window", type=_flag(_PLAN_MINIMUMS["cover_window"]),
                   default=_plan_default("cover_window"))
    p.add_argument("--depth", type=_flag(_PLAN_MINIMUMS["cover_depth"]),
                   default=_plan_default("cover_depth"))
    p.add_argument("--budget", type=_flag(_PLAN_MINIMUMS["cover_budget"]),
                   default=_plan_default("cover_budget"))
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
    except (CMSError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=_sys.stderr)
        return _exit_code(exc)


def _check_out(path: str | None) -> None:
    """Raise, before any work, the OSError that writing `path` would: its
    parent must be an existing directory and it must not be a directory.
    Creates nothing."""
    if path is None:
        return
    out = Path(path)
    if not out.parent.is_dir():
        code = (errno.ENOTDIR if any(p.exists() and not p.is_dir()
                                     for p in out.parents) else errno.ENOENT)
    elif out.is_dir():
        code = errno.EISDIR
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _dispatch(args: argparse.Namespace) -> int:
    _check_out(getattr(args, "out", None))
    if args.command == "verify-cert":
        verify_certificate(args.certificate)
        print("certificate ok")
        return EXIT_OK

    if args.command == "run":
        return run(ExperimentPlan.from_dict(_read_json(args.plan)))

    if args.command == "bounds":
        plan = ExperimentPlan(
            config_path=args.config, mode=args.mode, depths=args.depths,
            kstar_windows=args.windows, kstar_depth=args.kstar_depth)
        ctx = _Context(plan, None)
        code = _run_stages(ctx, STAGES[:5])
        if code == EXIT_OK:
            print(_report_text(ctx), end="")
            if args.out:
                _json_dump(ctx.report.to_dict(), Path(args.out))
        return code

    system = validate_system(_read_json(args.config))
    if args.command == "validate":
        print(f"ok: {len(system.vertices)} vertices, {len(system.edges)} edges, "
              f"support {sorted(system.support_set)}, "
              f"contraction rate {_fmt(system.contraction_rate)}")
    elif args.command == "simulate":
        mu = pushforward_measure(system)
        mu.to_csv(args.out)
        print(f"wrote {args.out}: mu_{mu.levels}, {len(mu)} atoms, "
              f"mean {[ _fmt(v) for v in mu.mean_point() ]}")
    elif args.command == "coding":
        result = coding_point(system, parse_word(args.past))
        print(f"point={','.join(_fmt(c) for c in result.point)} "
              f"error_bound={_fmt(result.error_bound)} depth={result.depth}")
        print("j," + ",".join(f"x_{i + 1}" for i in range(system.dimension)))
        for j, x in enumerate(result.orbit, start=1 - result.depth):
            print(f"{j}," + ",".join(repr(float(c)) for c in x))
    elif args.command == "table":
        measure = EXACT if args.mode == "exact" else pushforward_measure(system)
        table = build_table(walk_cylinders(system, args.depth, measure),
                            args.depth)
        table.to_csv(args.out)
        print(f"wrote {args.out}: {len(table)} rows at depth {args.depth}")
    elif args.command == "cover":
        if args.query is not None:
            q = cylinder_set(system,
                             [parse_word(w) for w in args.query.split(",")])
        else:
            q = full_cylinder_set(system, args.whole_space_depth)
        cover_mod.check_window_cap(system, q, args.window, args.depth,
                                   args.budget, "--window, --depth, --budget: ")
        walk = walk_cylinders(system, cover_mod.window_depth(
            q.depth, args.window, args.depth), None)
        cost, candidate = cover_mod.phi_upper(walk, q, args.window,
                                              args.depth, budget=args.budget)
        _json_dump(cover_mod.certificate_dict(system, q, candidate),
                   Path(args.out))
        print(f"cost={_fmt(cost)} pieces={len(candidate.pieces)} "
              f"exhaustive={candidate.exhaustive}")
    else:
        raise AssertionError(f"unhandled command {args.command}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
