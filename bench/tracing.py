"""Spans around the calls into each cmslab layer, recorded from outside.

A Tracer replaces a public function at the attribute its caller looks it up
by (``cmslab.cli.build_table``, ``cmslab.cover.verify_cover``, ...) with a
wrapper that records one span per call: name, layer, start, end, parent span,
job id and whether it raised.  Spans are never opened per word or per node.
They stay in memory until the process writes them out at its end.

A layer's self time is the sum over its spans of the span's duration minus
the durations of its direct children.  Each traced job is one root span of
layer ``bench`` (the benchmark's own glue), so the self times of all spans
of a job add up to the job's duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from contextlib import contextmanager
from time import perf_counter

# (owner, attribute, span name, layer).  The owner is a module or a class;
# the two to_csv methods are the run's CSV writes, so they belong to cli.
TRACED = (
    ("cmslab.cli", "run", "run", "cli"),
    ("cmslab.cli", "verify_certificate", "verify_certificate", "cli"),
    ("cmslab.simulate:EmpiricalMeasure", "to_csv", "measure_csv", "cli"),
    ("cmslab.cylinders:CylinderTable", "to_csv", "table_csv", "cli"),
    ("cmslab.cli", "validate_system", "validate", "model"),
    ("cmslab.cover", "validate_system", "validate", "model"),
    ("cmslab.cli", "derive_constants", "constants", "model"),
    ("cmslab.cli", "estimate_invariant", "estimate", "simulate"),
    ("cmslab.cli", "build_table", "table", "cylinders"),
    ("cmslab.cli", "m_of_cylinder_set", "mq", "cylinders"),
    ("cmslab.bounds", "kstar_estimate", "kstar", "bounds"),
    ("cmslab.bounds", "kl_n", "kl_n", "bounds"),
    ("cmslab.bounds", "evaluate_bounds", "evaluate", "bounds"),
    ("cmslab.cover", "phi_upper", "search", "cover"),
    ("cmslab.cover", "verify_cover", "verify", "cover"),
    ("cmslab.cover", "verify_certificate_data", "cert_verify", "cover"),
    ("cmslab.coding", "coding_point", "point", "coding"),
)

LAYERS = ("model", "simulate", "cylinders", "bounds", "cover", "coding", "cli")
COUNTED = ("estimate", "table", "kstar", "search", "point")


def _counts(name: str, bound: inspect.BoundArguments, result) -> dict:
    """Work counts of one call, read from its arguments and return value.

    Anything costlier than O(1) is left as arguments for ``finish`` to
    evaluate after the job, so it is not charged to an enclosing span.
    """
    a = bound.arguments
    if name == "estimate":
        return {"steps": len(result) + a.get("burn_in", 0)}
    if name == "table":
        return {"rows": len(result)}
    if name == "kstar":
        return {"kstar_words": (a["sys"], a["depth"] + a["window"])}
    if name == "search":
        candidate = result[1]
        return {"nodes": candidate.nodes_explored, "searches": 1,
                "exhaustive": int(candidate.exhaustive)}
    if name == "point":
        return {"orbit_depth": result.depth}
    return {}


class Tracer:
    """Installs the wrappers on demand and keeps every span in memory."""

    def __init__(self, cmslab):
        self._cmslab = cmslab
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.job = None

    def install(self) -> None:
        for owner_path, attr, name, layer in TRACED:
            module, _, cls = owner_path.partition(":")
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr] if cls else getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, layer))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str, layer: str):
        signature = inspect.signature(fn)
        counted = name in COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "layer": layer, "job": self.job,
                    "parent": self._stack[-1] if self._stack else None,
                    "failed": False}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["failed"] = True
                raise
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            if counted:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = _counts(name, bound, result)
            return result

        return traced

    @contextmanager
    def root(self, job: int):
        """The root span of one traced job; yields the span."""
        span = {"name": "job", "layer": "bench", "job": job, "parent": None,
                "failed": False, "counts": {}}
        self.job = job
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = perf_counter()
        try:
            yield span
        finally:
            span["end"] = perf_counter()
            self._stack.pop()
            self.job = None

    def finish(self) -> None:
        """Evaluate deferred counts; call once no job is running."""
        count_words = self._cmslab.cylinders.count_words
        for span in self.spans:
            deferred = span.get("counts", {}).get("kstar_words")
            if isinstance(deferred, tuple):
                span["counts"]["kstar_words"] = count_words(*deferred)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Self time of each span: its duration minus its direct children's."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


# Per-layer metric: (name, unit, how it is computed from the aggregate).
# Times are self times per traced job; counts are per traced job; rates
# divide a count by the self time of the span that did the work.
def layer_metrics(totals: dict, jobs: int) -> dict:
    """Per-layer metrics from summed span aggregates over `jobs` traced jobs.

    totals maps "time:<layer>.<name>", "count:<counter>", "calls:<layer>",
    "failed:<layer>", "job_s" (traced), "untraced_s" and "untraced_jobs" to
    sums.
    """
    def t(key):
        return totals.get(f"time:{key}", 0.0) / jobs

    def c(key):
        return totals.get(f"count:{key}", 0) / jobs

    def rate(count, time):
        return count / time if time > 0 else 0.0

    searches = totals.get("count:searches", 0)
    cli_self = sum(t(f"cli.{n}") for n in
                   ("run", "verify_certificate", "measure_csv", "table_csv"))
    job_s = totals["job_s"] / jobs
    out = {
        "model.validate_s": (t("model.validate"), "s"),
        "model.constants_s": (t("model.constants"), "s"),
        "model.calls": (totals.get("calls:model", 0) / jobs, "count"),
        "simulate.estimate_s": (t("simulate.estimate"), "s"),
        "simulate.steps": (c("steps"), "count"),
        "simulate.steps_per_s": (rate(c("steps"), t("simulate.estimate")), "1/s"),
        "cylinders.table_s": (t("cylinders.table"), "s"),
        "cylinders.rows": (c("rows"), "count"),
        "cylinders.rows_per_s": (rate(c("rows"), t("cylinders.table")), "1/s"),
        "cylinders.mq_s": (t("cylinders.mq"), "s"),
        "bounds.kstar_s": (t("bounds.kstar"), "s"),
        "bounds.kstar_words": (c("kstar_words"), "count"),
        "bounds.kl_n_s": (t("bounds.kl_n"), "s"),
        "bounds.evaluate_s": (t("bounds.evaluate"), "s"),
        "cover.search_s": (t("cover.search"), "s"),
        "cover.verify_s": (t("cover.verify"), "s"),
        "cover.cert_verify_s": (t("cover.cert_verify"), "s"),
        "cover.nodes": (c("nodes"), "count"),
        "cover.nodes_per_s": (rate(c("nodes"), t("cover.search")), "1/s"),
        "cover.exhaustive_frac": (
            totals.get("count:exhaustive", 0) / searches if searches else 0.0,
            "ratio"),
        "coding.point_s": (t("coding.point"), "s"),
        "coding.points": (totals.get("calls:coding", 0) / jobs, "count"),
        "coding.orbit_depth": (c("orbit_depth"), "count"),
        "cli.self_s": (cli_self, "s"),
        "cli.bytes_written": (c("bytes_written"), "B"),
        "bench.self_s": (t("bench.job"), "s"),
        "trace.job_s": (job_s, "s"),
        "trace.overhead_s": (
            job_s - totals["untraced_s"] / totals["untraced_jobs"], "s"),
    }
    for layer in LAYERS:
        out[f"{layer}.failed"] = (totals.get(f"failed:{layer}", 0), "count")
    return out


def aggregate(spans: list[dict]) -> dict:
    """Sum self times, counts, calls and failures of traced jobs' spans."""
    totals: dict = {}

    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    for span, own in zip(spans, self_times(spans)):
        add(f"time:{span['layer']}.{span['name']}", own)
        if span["layer"] == "bench":
            add("jobs", 1)
            add("job_s", span["end"] - span["start"])
        else:
            add(f"calls:{span['layer']}", 1)
            add(f"failed:{span['layer']}", int(span["failed"]))
        for key, value in span.get("counts", {}).items():
            add(f"count:{key}", value)
    return totals
