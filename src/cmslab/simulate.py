"""The invariant measure: pushed forward deterministically, or sampled.

The chain lives on pairs (vertex, point): from (v, x) an out-edge e of v is
taken with probability p_e(x) and the state moves to (t(e), w_e(x)).
pushforward_measure builds mu_N, the law of the chain after N steps from the
support base points, atom by atom (Barnsley's deterministic algorithm); it
tends to the invariant measure as N grows, needs no seed, and is the
measure `run`, `bounds` and `table` use.  estimate_invariant samples the
invariant measure instead, from a single long chain after burn-in; all its
randomness is driven by numpy Generators seeded from 64-bit integers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import ConfigError, ValidationError
from .model import DirectedEdge, MarkovSystem, estimate_c_hat

DEFAULT_BURN_IN = 1000
ATOM_CAP = 2 ** 14  # atoms x dimension of a default pushforward measure
LEVEL_CAP = 256     # its levels when the atom count stops growing
CSV_BLOCK = 256     # rows a CSV write formats at a time

State = tuple[int, np.ndarray]


def _float_texts(block: np.ndarray) -> list[list[str]]:
    """repr of every float of a C-contiguous (columns, rows) block, as one
    list of strings per column.  Only the block's distinct bit patterns are
    formatted, by one repr of their list; the bits, not the values, tell
    them apart, so 0.0 and -0.0 keep their own text."""
    n_cols, n_rows = block.shape
    flat = block.ravel()
    bits, inverse = np.unique(flat.view(np.int64), return_inverse=True)
    texts = np.array(repr(bits.view(np.float64).tolist())[1:-1].split(", "),
                     dtype=object)
    return texts[inverse.reshape(n_cols, n_rows)].tolist()


def write_csv(path, header: list[str], lead: Callable[[slice], Iterable[str]],
              columns: list[np.ndarray]) -> None:
    """Write the header, then one row per entry of the float `columns`,
    each led by its string from lead(rows) and ending in CRLF as csv.writer
    ends it; every number is its repr, as csv.writer writes a float.  Rows
    go out in slices `rows` of CSV_BLOCK: a block's numbers are stacked and
    formatted at once by _float_texts, which formats each distinct number
    once, so memory holds one block, not the file."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), CSV_BLOCK):
            rows = slice(start, start + CSV_BLOCK)
            texts = _float_texts(np.stack([c[rows] for c in columns]))
            fh.write("\r\n".join(map(",".join, zip(lead(rows), *texts)))
                     + "\r\n")


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
        """One row per sample: vertex, coordinates, weight.  The vertex
        column leads each row; write_csv formats each distinct coordinate
        and weight of a block once."""
        k = self.points.shape[1]
        write_csv(path, ["vertex", *(f"x_{i + 1}" for i in range(k)), "weight"],
                  lambda rows: map(repr, self.vertices[rows].tolist()),
                  [*self.points.T, self.weights])

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


@dataclass(frozen=True, eq=False)
class PushforwardMeasure(EmpiricalMeasure):
    """mu_N, the support base points pushed forward `levels` chain steps.
    Its atoms are computed, not sampled, so its averages carry no standard
    error."""

    levels: int = 0

    def average(self, values: np.ndarray) -> tuple[float, float]:
        return float(self.weights @ values), 0.0


def _push(sys: MarkovSystem, verts: np.ndarray, pts: np.ndarray,
          wts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One level: every atom (v, x, w) splits into (t(e), w_e(x), w p_e(x))
    over the out-edges e of v, one map and one probability call per edge;
    atoms of zero weight are dropped."""
    children = []
    for v in sys.vertices:
        at = verts == v.index
        x, w = pts[at], wts[at]
        for e in sys.out_edges(v.index):
            p_e = e.prob.value_many(x)
            p_e *= w
            children.append((np.full(len(w), e.target), e.map.apply_many(x), p_e))
    verts, pts, wts = (np.concatenate(parts) for parts in zip(*children))
    if wts.all():  # nothing to drop: spare the copies
        return verts, pts, wts
    keep = wts > 0.0
    return verts[keep], pts[keep], wts[keep]


def pushforward_measure(sys: MarkovSystem,
                        levels: int | None = None) -> PushforwardMeasure:
    """mu_N: one atom (v, base(v), 1/|S|) per support vertex v, pushed
    forward N levels by _push.  The weights are renormalized to sum to 1:
    validation lets out-edge probabilities sum to 1 within 1e-9 on a
    region, and N levels compound that.

    N is `levels`, or by default the deepest level whose atoms (counted
    before zero weights are dropped) times the dimension stay within
    ATOM_CAP, and at most LEVEL_CAP, which only a system whose atom count
    grows slowly or not at all reaches.  Under the paper's hypotheses mu_N
    tends to the invariant measure.  Its start law is uniform on the
    support set, so on a reducible vertex chain it tends to the invariant
    measure that start law leads to.
    """
    if levels is not None and levels < 0:
        raise ValueError("levels must be >= 0")
    support = sorted(sys.support_set)
    verts = np.array(support)
    pts = np.array([sys.base_point(v) for v in support])
    wts = np.full(len(support), 1.0 / len(support))
    fanout = np.zeros(len(sys.vertices) + 1, dtype=int)
    for v in sys.vertices:
        fanout[v.index] = len(sys.out_edges(v.index))
    depth = 0
    while depth < (LEVEL_CAP if levels is None else levels):
        if levels is None and int(fanout[verts].sum()) * sys.dimension > ATOM_CAP:
            break
        verts, pts, wts = _push(sys, verts, pts, wts)
        depth += 1
    wts /= math.fsum(wts)
    return PushforwardMeasure(vertices=verts, points=pts, weights=wts,
                              levels=depth)


def c_hat_gap(sys: MarkovSystem, mu: PushforwardMeasure) -> float | None:
    """|c_hat(mu_N) - c_hat(mu_{N-2})|: how far the last two levels still
    move c_hat, or None when mu has fewer than two levels."""
    if mu.levels < 2:
        return None
    coarse = pushforward_measure(sys, mu.levels - 2)
    return abs(estimate_c_hat(sys, mu)[0] - estimate_c_hat(sys, coarse)[0])


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
