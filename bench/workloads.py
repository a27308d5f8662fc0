"""Seeded workload inputs, the job every workload runs, and its output checks.

Every workload is one research session repeated as a job:

    cli.run(plan)                           the whole pipeline, from a plan file
    cli.verify_certificate(path)            re-verify each certificate it wrote
    coding.coding_point(system, past)       for each seeded past word

The workloads differ only in the generated system and plan, which decide the
layer that carries the job:

mc_affine         Monte Carlo plan on a k=2 system with affine probabilities.
                  Every cylinder word costs a pass over 100k samples, so
                  simulate, cylinders, bounds (K*) and the measure.csv write
                  carry the job; cover search is about 1 %.
exact_cover       exact plan on a k=1 system with constant probabilities,
                  depths 1-12 (about 16k rows) and a cover search that stops
                  at its 1M-node budget.  No sample arrays: the cost is
                  per-word Python work in cylinders plus branch and bound, so
                  a cylinder engine tuned for the MC path that adds per-word
                  overhead shows here.
geometry_highdim  k=8 system with minimal tables, eight coding points on
                  depth-256 pasts, and verification of a certificate that
                  embeds the k=8 system.  The only workload where model's
                  5^k validation grid and coding's O(m^2) backward orbits
                  dominate; the other two barely call either.  k=9 took
                  2.1 s and 730 MB per validation, too heavy to repeat.

The query-word coding points on the first two workloads and the tiny tables
on the third keep every layer called on every workload, so no layer time is
identically zero; each costs well under 1 % of its job.

The library receives only the generated config and plan.  The numbers in
them depend on the seed; the topology and the sizes do not, so the work per
job is nearly the same on every seed (the mc_affine cover search, about 1 %
of its job, is the one part whose node count moves with the seed).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# e1: 1->1, e2: 1->2, e3: 2->1, e4: 2->2.  Each vertex has two out-edges, so
# there are 2^(n+1) admissible words of depth n on every seed.
TOPOLOGY = (("e1", 1, 1), ("e2", 1, 2), ("e3", 2, 1), ("e4", 2, 2))
OUT_EDGES = {1: ("e1", "e2"), 2: ("e3", "e4")}

# Constant probabilities are drawn from the band alpha(e1) in [0.35, 0.65],
# alpha(e3) = 1 - alpha(e1) +- 0.1.  Inside it the whole-space cover search
# (window 2, depth 3) needs more than 1M nodes on every seed, so it stops at
# the plan budget and costs the same on every seed.  Outside the band the
# node count ranges from 80k to over 1M with the probabilities.
EXACT_ALPHA_BAND = (0.35, 0.65)
EXACT_ALPHA_SKEW = 0.1

WORKLOADS = ("mc_affine", "exact_cover", "geometry_highdim")

# Full sizes, and the smoke-test sizes used with --tiny.
SIZES = {
    "mc_affine": {
        "full": dict(k=2, samples=100_000, depths=[1, 2, 3, 4, 5], kstar_depth=4,
                     kstar_windows=[0, 1, 2], cover_window=1, cover_depth=3,
                     budget=1_000_000, whole_space_depth=2, query_words=2,
                     query_depth=3),
        "tiny": dict(k=2, samples=2_000, depths=[1, 2, 3], kstar_depth=2,
                     kstar_windows=[0, 1], cover_window=1, cover_depth=2,
                     budget=10_000, whole_space_depth=1, query_words=2,
                     query_depth=2),
    },
    "exact_cover": {
        "full": dict(k=1, samples=10_000, depths=list(range(1, 13)),
                     kstar_depth=9, kstar_windows=[0, 1, 2], cover_window=2,
                     cover_depth=3, budget=1_000_000, whole_space_depth=1,
                     query_words=4, query_depth=3),
        "tiny": dict(k=1, samples=1_000, depths=[1, 2, 3, 4], kstar_depth=3,
                     kstar_windows=[0, 1], cover_window=1, cover_depth=2,
                     budget=10_000, whole_space_depth=1, query_words=2,
                     query_depth=2),
    },
    "geometry_highdim": {
        "full": dict(k=8, samples=2_000, depths=[1, 2], kstar_depth=1,
                     kstar_windows=[0, 1], cover_window=1, cover_depth=1,
                     budget=1_000_000, whole_space_depth=1, pasts=8,
                     past_depth=256),
        "tiny": dict(k=3, samples=500, depths=[1, 2], kstar_depth=1,
                     kstar_windows=[0, 1], cover_window=1, cover_depth=1,
                     budget=10_000, whole_space_depth=1, pasts=2,
                     past_depth=16),
    },
}

BURN_IN = 1000
Z_TOL = 1e-12          # exact-mode Z = |S| pi(source), absolute
KOLMOGOROV_RTOL = 1e-12
GEOMETRY_RTOL = 1e-9   # delta and b against their closed forms


@dataclass
class Inputs:
    """Everything one workload process needs; built once, during set-up."""

    workload: str
    config: dict
    plan: dict               # ExperimentPlan fields, config_path included
    pasts: list              # coding-point words, deepest edge first
    out_dir: Path
    certificates: list       # paths the run writes, one per query

    @property
    def exact(self) -> bool:
        return self.plan["mode"] == "exact"


# ---------------------------------------------------------------------------
# seeded generation, valid by construction

def _boxes(rng: np.random.Generator, k: int):
    """Two disjoint boxes, separated along the first axis."""
    lo1 = np.zeros(k)
    hi1 = rng.uniform(0.5, 1.5, k)
    lo2 = np.zeros(k)
    lo2[0] = hi1[0] + rng.uniform(0.5, 1.5)
    hi2 = lo2 + rng.uniform(0.5, 1.5, k)
    return {1: (lo1, hi1), 2: (lo2, hi2)}


def _map(rng: np.random.Generator, src, tgt):
    """A contraction sending box src strictly inside box tgt.

    The image of a box with centre c and half-widths r under x -> Ax + b is
    the box A c + b +- |A| r.  Scaling A by its spectral norm alone does not
    make that fit (at k=8 it escaped), so the row sums of |A| are bounded
    too: |A| r_src <= 0.8 r_tgt componentwise.
    """
    k = len(src[0])
    c_src, r_src = (src[0] + src[1]) / 2, (src[1] - src[0]) / 2
    c_tgt, r_tgt = (tgt[0] + tgt[1]) / 2, (tgt[1] - tgt[0]) / 2
    a = rng.normal(size=(k, k))
    rho = rng.uniform(0.3, 0.6)
    fit = 0.8 * float(np.min(r_tgt / (np.abs(a) @ r_src)))
    a *= min(rho / np.linalg.norm(a, 2), fit)
    half = np.abs(a) @ r_src
    centre = c_tgt + (r_tgt - half) * rng.uniform(-0.9, 0.9, k)
    return a, centre - a @ c_src


def _affine_pair(rng: np.random.Generator, box):
    """(alpha, beta) for two out-edges whose sum is identically 1.

    The first edge ranges over [low, low + osc] on the box, with osc in
    [0.1, 0.4] and the range inside [0.2, 0.8]; the second gets
    (1 - alpha, -beta), so betas cancel exactly.
    """
    lo, hi = box
    beta = rng.normal(size=len(lo))
    osc = rng.uniform(0.1, 0.4)
    beta *= osc / float(np.abs(beta) @ (hi - lo))
    low = rng.uniform(0.2, 0.8 - osc)
    alpha = low - float(np.sum(np.minimum(beta * lo, beta * hi)))
    return (alpha, beta), (1.0 - alpha, -beta)


def _constant_pair(rng: np.random.Generator, vertex: int, first: float):
    if vertex == 1:
        alpha = first
    else:
        alpha = 1.0 - first + rng.uniform(-EXACT_ALPHA_SKEW, EXACT_ALPHA_SKEW)
    return (alpha, None), (1.0 - alpha, None)


def make_system(rng: np.random.Generator, k: int, affine: bool) -> dict:
    """A 2-vertex, 4-edge system config on the fixed topology."""
    boxes = _boxes(rng, k)
    vertices = [{"index": v, "lower": lo.tolist(), "upper": hi.tolist(),
                 "base_point": (lo + rng.uniform(0, 1, k) * (hi - lo)).tolist()}
                for v, (lo, hi) in boxes.items()]
    probs = {}
    first = None if affine else rng.uniform(*EXACT_ALPHA_BAND)
    for v, (ea, eb) in OUT_EDGES.items():
        pair = (_affine_pair(rng, boxes[v]) if affine
                else _constant_pair(rng, v, first))
        probs[ea], probs[eb] = pair
    edges = []
    for eid, s, t in TOPOLOGY:
        a, b = _map(rng, boxes[s], boxes[t])
        alpha, beta = probs[eid]
        prob = ({"family": "affine", "alpha": alpha, "beta": beta.tolist()}
                if affine else {"family": "constant", "alpha": alpha})
        edges.append({"id": eid, "source": s, "target": t,
                      "linear": a.ravel().tolist(), "offset": b.tolist(),
                      "prob": prob})
    return {"dimension": k, "vertices": vertices, "edges": edges,
            "support_set": [1, 2]}


def random_word(rng: np.random.Generator, depth: int) -> tuple[str, ...]:
    """An admissible word: a random walk on the fixed topology."""
    target = {eid: t for eid, _, t in TOPOLOGY}
    vertex = int(rng.integers(1, 3))
    word = []
    for _ in range(depth):
        eid = OUT_EDGES[vertex][int(rng.integers(0, 2))]
        word.append(eid)
        vertex = target[eid]
    return tuple(word)


def _distinct_words(rng: np.random.Generator, count: int, depth: int) -> list:
    words: list = []
    while len(words) < count:
        w = random_word(rng, depth)
        if w not in words:
            words.append(w)
    return words


def prepare(workload: str, seed: int, work_dir: Path, tiny: bool = False) -> Inputs:
    """Generate the workload's config and plan from the seed and write the
    config where the plan points."""
    size = SIZES[workload]["tiny" if tiny else "full"]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    config = make_system(rng, size["k"], affine=workload != "exact_cover")
    work_dir.mkdir(parents=True, exist_ok=True)
    config_path = work_dir / "system.json"
    config_path.write_text(json.dumps(config))
    out_dir = work_dir / "out"

    queries = [{"whole_space_depth": size["whole_space_depth"]}]
    if "query_words" in size:
        words = _distinct_words(rng, size["query_words"], size["query_depth"])
        queries.append({"words": [".".join(w) for w in words]})
        pasts = words
    else:
        pasts = [random_word(rng, size["past_depth"]) for _ in range(size["pasts"])]

    plan = {
        "config_path": str(config_path),
        "mode": "exact" if workload == "exact_cover" else "monte_carlo",
        "seed": int(rng.integers(0, 2**31)),
        "mc_samples": size["samples"],
        "burn_in": BURN_IN,
        "depths": size["depths"],
        "kstar_windows": size["kstar_windows"],
        "kstar_depth": size["kstar_depth"],
        "cover_window": size["cover_window"],
        "cover_depth": size["cover_depth"],
        "cover_budget": size["budget"],
        "queries": queries,
        "output_dir": str(out_dir),
    }
    certificates = [out_dir / "covers" / f"query_{i}.json"
                    for i in range(len(queries))]
    return Inputs(workload=workload, config=config, plan=plan, pasts=pasts,
                  out_dir=out_dir, certificates=certificates)


# ---------------------------------------------------------------------------
# the job

@dataclass
class Outcome:
    code: int
    points: list


def run_job(cmslab, inputs: Inputs, system) -> Outcome:
    """One session.  Library functions are looked up on their modules at
    call time, so a tracer that wraps those attributes sees every call."""
    cli, coding = cmslab.cli, cmslab.coding
    code = cli.run(cli.ExperimentPlan.from_dict(dict(inputs.plan)))
    if code == 0:
        for path in inputs.certificates:
            cli.verify_certificate(str(path))
    points = [coding.coding_point(system, past) for past in inputs.pasts]
    return Outcome(code=code, points=points)


# ---------------------------------------------------------------------------
# output checks; each returns a list of failure messages

def check(inputs: Inputs, outcome: Outcome, first_bounds: bytes | None) -> list[str]:
    """Check one job's outputs.  first_bounds is the bounds.json of the
    process's first job, which every later job must reproduce byte for byte
    (Monte Carlo runs only)."""
    if outcome.code != 0:
        return [f"run exited with code {outcome.code}"]
    raw = (inputs.out_dir / "bounds.json").read_bytes()
    bounds = json.loads(raw)
    errors = [f"pass flag {name} is false"
              for name, ok in bounds["pass_flags"].items() if not ok]
    if not inputs.exact:
        errors += _check_kstar_window0(inputs, bounds)
        if first_bounds is not None and raw != first_bounds:
            errors.append("bounds.json differs from the first job's")
    if inputs.workload == "exact_cover":
        errors += _check_exact_tables(inputs, bounds)
    if inputs.workload == "geometry_highdim":
        errors += _check_geometry(inputs, bounds)
    errors += _check_coding(inputs, outcome)
    return errors


def _check_kstar_window0(inputs: Inputs, bounds: dict) -> list[str]:
    depth = inputs.plan["kstar_depth"]
    k_n = {n: v for n, v, _ in bounds["k_n_series"]}
    for w, n, value, _ in bounds["kstar_estimates"]:
        if w == 0 and value != k_n[n]:
            return [f"K*(window 0) {value!r} != K_{depth} {k_n[n]!r}"]
    return []


def stationary_law(config: dict) -> np.ndarray:
    """Stationary vertex law of constant probabilities, as the eigenvector of
    P^T for the eigenvalue nearest 1 (independent of the library's solve)."""
    n = len(config["vertices"])
    p = np.zeros((n, n))
    for e in config["edges"]:
        p[e["source"] - 1, e["target"] - 1] += e["prob"]["alpha"]
    values, vectors = np.linalg.eig(p.T)
    pi = np.real(vectors[:, np.argmin(np.abs(values - 1.0))])
    return pi / pi.sum()


def _read_table(path: Path) -> dict:
    rows = {}
    with open(path) as fh:
        next(fh)
        for line in fh:
            word, m, _phi, z, _logz, _se = line.rstrip("\n").split(",")
            rows[tuple(word.split("."))] = (float(m), float(z))
    return rows


def _check_exact_tables(inputs: Inputs, bounds: dict) -> list[str]:
    pi = stationary_law(inputs.config)
    source = {e["id"]: e["source"] for e in inputs.config["edges"]}
    scale = len(inputs.config["support_set"])
    errors = []
    previous = None
    for n in inputs.plan["depths"]:
        rows = _read_table(inputs.out_dir / "tables" / f"depth_{n}.csv")
        for word, (_m, z) in rows.items():
            expect = scale * pi[source[word[0]] - 1]
            if abs(z - expect) > Z_TOL:
                errors.append(f"depth {n} word {'.'.join(word)}: Z {z!r} "
                              f"!= |S| pi(source) {expect!r}")
                break
        if previous is not None:
            children: dict = {}
            for word, (m, _z) in rows.items():
                children.setdefault(word[:-1], []).append(m)
            for word, (m, _z) in previous.items():
                total = math.fsum(children.get(word, []))
                if abs(total - m) > KOLMOGOROV_RTOL * m:
                    errors.append(f"Kolmogorov consistency fails at "
                                  f"{'.'.join(word)}: {m!r} != {total!r}")
                    break
        previous = rows
    series = [v for _, v, _ in bounds["k_n_series"]]
    if max(series) - min(series) > Z_TOL:
        errors.append(f"K_n is not constant in n: {series}")
    return errors


def _box_range(alpha: float, beta: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Exact min and max of alpha + beta . x over the box [lo, hi]."""
    low, high = beta * lo, beta * hi
    return (alpha + float(np.sum(np.minimum(low, high))),
            alpha + float(np.sum(np.maximum(low, high))))


def _check_geometry(inputs: Inputs, bounds: dict) -> list[str]:
    cfg = inputs.config
    box = {v["index"]: (np.array(v["lower"]), np.array(v["upper"]))
           for v in cfg["vertices"]}
    base = {v["index"]: np.array(v["base_point"]) for v in cfg["vertices"]}
    k = cfg["dimension"]
    delta = math.inf
    coeff = {v: [0.0, np.zeros(k)] for v in box}
    for e in cfg["edges"]:
        alpha, beta = e["prob"]["alpha"], np.array(e["prob"]["beta"])
        delta = min(delta, _box_range(alpha, beta, *box[e["source"]])[0])
        a = np.array(e["linear"]).reshape(k, k)
        disp = float(np.linalg.norm(a @ base[e["source"]] + np.array(e["offset"])
                                    - base[e["target"]]))
        coeff[e["source"]][0] += disp * alpha
        coeff[e["source"]][1] += disp * beta
    b = max(_box_range(c0, c1, *box[v])[1] for v, (c0, c1) in coeff.items())
    errors = []
    for name, expect in (("delta", delta), ("b", b)):
        got = bounds["constants"][name]
        if abs(got - expect) > GEOMETRY_RTOL * max(1.0, abs(expect)):
            errors.append(f"constant {name} {got!r} != closed form {expect!r}")
    return errors


def _check_coding(inputs: Inputs, outcome: Outcome) -> list[str]:
    target = {e["id"]: e["target"] for e in inputs.config["edges"]}
    regions = {v["index"]: (np.array(v["lower"]), np.array(v["upper"]))
               for v in inputs.config["vertices"]}
    errors = []
    for past, result in zip(inputs.pasts, outcome.points):
        lo, hi = regions[target[past[-1]]]
        gap = np.maximum(np.maximum(lo - result.point, result.point - hi), 0.0)
        if float(np.linalg.norm(gap)) > result.error_bound:
            errors.append(f"coding point of {'.'.join(past)} lies "
                          f"{float(np.linalg.norm(gap)):.3g} outside its region")
    return errors
