"""Markov chain simulation and invariant measure estimation.

The chain lives on pairs (vertex, point): from (v, x) an out-edge e of v is
drawn with probability p_e(x) and the state moves to (t(e), w_e(x)).  The
invariant measure is estimated by a single long chain after burn-in; all
randomness is driven by numpy Generators seeded from 64-bit integers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ValidationError
from .model import DirectedEdge, MarkovSystem, estimate_c_hat

DEFAULT_BURN_IN = 1000

State = tuple[int, np.ndarray]


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Weighted samples (vertex, point, weight) with total weight 1."""

    vertices: np.ndarray
    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=int)
        p = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float)
        if not (len(v) == len(p) == len(w)):
            raise ValidationError("measure arrays have mismatched lengths")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(w))):
            raise ValidationError("measure points and weights must be finite")
        if np.any(w <= 0.0):
            raise ValidationError("measure weights must be positive")
        if abs(math.fsum(w) - 1.0) > 1e-12:
            raise ValidationError("measure weights must sum to 1 within 1e-12")
        for arr, name in ((v, "vertices"), (p, "points"), (w, "weights")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.weights)

    def validate_supports(self, sys: MarkovSystem) -> None:
        """Check every sample point has the system's dimension and lies in
        its vertex region."""
        if self.points.shape[1] != sys.dimension:
            raise ValidationError(
                f"measure points have {self.points.shape[1]} coordinates but "
                f"the system has dimension {sys.dimension}")
        known = {v.index for v in sys.vertices}
        for idx in np.unique(self.vertices):
            if int(idx) not in known:
                raise ValidationError(f"sample vertex {idx} is not a system vertex")
            pts = self.points[self.vertices == idx]
            if not sys.vertex(int(idx)).contains(pts):
                raise ValidationError(f"sample point outside region of vertex {idx}")

    def mean_point(self) -> np.ndarray:
        return self.weights @ self.points

    def average(self, values: np.ndarray) -> tuple[float, float]:
        """Weighted mean of one value per sample, with its standard error
        sqrt(sum_i (w_i (values_i - mean))^2)."""
        value = float(self.weights @ values)
        dev = values - value
        dev *= self.weights
        return value, float(np.sqrt(np.sum(np.square(dev, out=dev))))

    def to_csv(self, path) -> None:
        k = self.points.shape[1]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["vertex"] + [f"x_{i + 1}" for i in range(k)] + ["weight"])
            for v, p, w in zip(self.vertices, self.points, self.weights):
                writer.writerow([int(v)] + [repr(float(c)) for c in p]
                                + [repr(float(w))])

    @classmethod
    def from_csv(cls, path) -> "EmpiricalMeasure":
        """Read a to_csv file; a missing, empty or malformed file, or one
        that is not a measure, raises ConfigError naming it."""
        try:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
        except OSError as exc:
            raise ConfigError(f"cannot read measure CSV {path}: {exc}") from None
        if len(rows) < 2 or len(rows[0]) < 3:
            raise ConfigError(
                f"measure CSV {path} needs a vertex,x_1..x_k,weight header "
                f"and at least one sample row")
        header, body = rows[0], rows[1:]
        k = len(header) - 2
        try:
            if any(len(r) != k + 2 for r in body):
                raise ValueError(f"every row needs {k + 2} fields")
            verts = np.array([int(r[0]) for r in body])
            pts = np.array([[float(c) for c in r[1:1 + k]] for r in body])
            wts = np.array([float(r[-1]) for r in body])
            return cls(vertices=verts, points=pts, weights=wts)
        except (ValueError, ValidationError) as exc:
            raise ConfigError(f"malformed measure CSV {path}: {exc}") from None


def step(sys: MarkovSystem, state: State,
         rng: np.random.Generator) -> tuple[DirectedEdge, State]:
    """One chain transition; edges are scanned in id order."""
    vertex, x = state
    edges = sys.out_edges(vertex)
    r = rng.random()
    acc = 0.0
    chosen = edges[-1]
    for e in edges:
        acc += e.prob.value(x)
        if r < acc:
            chosen = e
            break
    return chosen, (chosen.target, chosen.map.apply(x))


def _start_state(sys: MarkovSystem) -> State:
    first = min(sys.support_set)
    return first, sys.base_point(first)


def estimate_invariant(sys: MarkovSystem, n_samples: int,
                       burn_in: int = DEFAULT_BURN_IN,
                       seed: int = 0) -> EmpiricalMeasure:
    """Ergodic-average estimate from one chain started at the first support
    vertex's base point; deterministic given the seed."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    state = _start_state(sys)
    for _ in range(burn_in):
        _, state = step(sys, state, rng)
    verts = np.empty(n_samples, dtype=int)
    pts = np.empty((n_samples, sys.dimension))
    for i in range(n_samples):
        _, state = step(sys, state, rng)
        verts[i] = state[0]
        pts[i] = state[1]
    weights = np.full(n_samples, 1.0 / n_samples)
    return EmpiricalMeasure(vertices=verts, points=pts, weights=weights)


@dataclass(frozen=True)
class ContractionRow:
    i: int
    estimate: float
    stderr: float
    bound: float


def check_average_contraction(sys: MarkovSystem, mu: EmpiricalMeasure,
                              i_max: int, n_mc: int,
                              seed: int = 0) -> list[ContractionRow]:
    """Monte Carlo check that the i-step orbit of a mu point and the orbit of
    its base point, driven by the same edges, approach each other like a^i.

    Returns rows (i, estimate, stderr, a^i * c_hat) for i = 1..i_max, from
    n_mc points drawn from mu by a generator seeded with (seed, 0).
    """
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    a = sys.contraction_rate
    c_hat, _ = estimate_c_hat(sys, mu)

    sums = np.zeros(i_max)
    sqsums = np.zeros(i_max)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    for s in rng.choice(len(mu), size=n_mc, p=mu.weights):
        vertex = int(mu.vertices[s])
        state = (vertex, mu.points[s])
        y = sys.base_point(vertex)
        for i in range(i_max):
            edge, state = step(sys, state, rng)
            y = edge.map.apply(y)
            dist = float(np.linalg.norm(state[1] - y))
            sums[i] += dist
            sqsums[i] += dist * dist
    mean = sums / n_mc
    var = np.maximum(sqsums / n_mc - mean ** 2, 0.0)
    stderr = np.sqrt(var / n_mc)
    return [ContractionRow(i=i + 1, estimate=float(mean[i]),
                           stderr=float(stderr[i]),
                           bound=a ** (i + 1) * c_hat)
            for i in range(i_max)]
