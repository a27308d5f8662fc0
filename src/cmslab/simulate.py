"""The invariant measure, pushed forward deterministically.

The chain lives on pairs (vertex, point): from (v, x) an out-edge e of v is
taken with probability p_e(x) and the state moves to (t(e), w_e(x)).
pushforward_measure builds mu_N, the law of the chain after N steps from the
support base points, atom by atom (Barnsley's deterministic algorithm); it
tends to the invariant measure as N grows and needs no seed.  Its averages
are exact sums over weighted atoms, so they carry no standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import ValidationError
from .model import MarkovSystem, estimate_c_hat

ATOM_CAP = 2 ** 14  # atoms x dimension of a default pushforward measure
LEVEL_CAP = 256     # its levels when the atom count stops growing
CSV_BLOCK = 1024    # rows a CSV write formats at a time


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
    """Weighted atoms (vertex, point, weight) with total weight 1.  mu_N
    records its N as `levels`."""

    vertices: np.ndarray
    points: np.ndarray
    weights: np.ndarray
    levels: int = 0

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

    def mean_point(self) -> np.ndarray:
        return np.array([self.average(x) for x in self.points.T])

    def average(self, values: np.ndarray) -> float:
        """Weighted mean of one value per atom: the correctly rounded fsum
        of the products, so no summation order (BLAS threads) moves it."""
        return math.fsum((self.weights * values).tolist())

    def to_csv(self, path) -> None:
        """One row per atom: vertex, coordinates, weight.  The vertex
        column leads each row; write_csv formats each distinct coordinate
        and weight of a block once."""
        k = self.points.shape[1]
        write_csv(path, ["vertex", *(f"x_{i + 1}" for i in range(k)), "weight"],
                  lambda rows: map(repr, self.vertices[rows].tolist()),
                  [*self.points.T, self.weights])


def _push(sys: MarkovSystem, verts: np.ndarray, wts: np.ndarray,
          pts: np.ndarray, *carried: np.ndarray) -> tuple[np.ndarray, ...]:
    """One level: every atom (v, x, w) splits into (t(e), w p_e(x), w_e(x))
    over the out-edges e of v, one map and one probability call per edge;
    each `carried` point array moves under the same maps as pts.  Atoms of
    zero weight are dropped."""
    children = []
    for v in sys.vertices:
        at = verts == v.index
        w = wts[at]
        points = [arr[at] for arr in (pts, *carried)]
        for e in sys.out_edges(v.index):
            p_e = e.prob.value_many(points[0])
            p_e *= w
            children.append((np.full(len(w), e.target), p_e,
                             *map(e.map.apply_many, points)))
    arrays = [np.concatenate(parts) for parts in zip(*children)]
    if arrays[1].all():  # nothing to drop: spare the copies
        return tuple(arrays)
    keep = arrays[1] > 0.0
    return tuple(arr[keep] for arr in arrays)


def pushforward_measure(sys: MarkovSystem,
                        levels: int | None = None) -> EmpiricalMeasure:
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
    verts = np.array(sorted(sys.support_set))
    pts = sys.base_points[verts]
    wts = np.full(len(verts), 1.0 / len(verts))
    depth = 0
    while depth < (LEVEL_CAP if levels is None else levels):
        if (levels is None
                and int(sys.out_degrees[verts].sum()) * sys.dimension > ATOM_CAP):
            break
        verts, wts, pts = _push(sys, verts, wts, pts)
        depth += 1
    wts /= math.fsum(wts)
    return EmpiricalMeasure(vertices=verts, points=pts, weights=wts,
                            levels=depth)


def c_hat_gap(sys: MarkovSystem, mu: EmpiricalMeasure,
              c_hat: float) -> float | None:
    """|c_hat - c_hat(mu_{N-2})| for c_hat that of mu = mu_N: how far the last
    two levels still move c_hat, or None when mu has fewer than two levels."""
    if mu.levels < 2:
        return None
    return abs(c_hat - estimate_c_hat(
        sys, pushforward_measure(sys, mu.levels - 2)))


def _exact_terms(values: list[float]) -> list[float]:
    """Floats whose exact sum is that of `values`, each the fsum of what the
    ones before leave: one fsum of many lists' terms rounds their sum once."""
    terms = []
    while rest := math.fsum(values + [-t for t in terms]):
        terms.append(rest)
    return terms


@dataclass(frozen=True)
class ContractionRow:
    i: int
    estimate: float
    bound: float


def check_average_contraction(sys: MarkovSystem, mu: EmpiricalMeasure,
                              i_max: int) -> list[ContractionRow]:
    """How fast the i-step orbit of a mu atom and the orbit of its vertex's
    base point, driven by the same edges, approach each other, against a^i.

    Each pair (atom, base point) is pushed forward by _push, weighted by p_e
    at the atom, so the estimate at step i is the exact mean distance over
    every edge path of length i.  The atoms go in chunks whose pairs after
    i_max steps, times the dimension, stay within ATOM_CAP where the fan-out
    allows it; a level's estimate is the correctly rounded sum of its
    products over all chunks (_exact_terms), whatever the chunk size.
    Returns rows (i, estimate, a^i * c_hat) for i = 1..i_max.
    """
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    a = sys.contraction_rate
    c_hat = estimate_c_hat(sys, mu)
    base = sys.base_points[mu.vertices]
    fanout = int(sys.out_degrees.max())
    chunk = max(1, ATOM_CAP // (sys.dimension * fanout ** i_max))
    sums = [[] for _ in range(i_max)]
    for start in range(0, len(mu), chunk):
        part = slice(start, start + chunk)
        pairs = (mu.vertices[part], mu.weights[part], mu.points[part],
                 base[part])
        for level in sums:
            pairs = _push(sys, *pairs)
            _, wts, pts, ys = pairs
            level += _exact_terms(
                (wts * np.linalg.norm(pts - ys, axis=1)).tolist())
    return [ContractionRow(i=i, estimate=math.fsum(level), bound=a ** i * c_hat)
            for i, level in enumerate(sums, start=1)]
