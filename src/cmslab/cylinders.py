"""Cylinder measures and the per-cylinder density table.

A depth-n cylinder is the set of sequences agreeing with an admissible edge
word on coordinates 1..n.  Three set functions are computed per word: the
chain mass M (stationary chain in exact mode, weighted average of chain
probabilities over an empirical measure in Monte Carlo mode), the base
measure phi0 (average of chain probabilities started at the support base
points), and their ratio Z with its logarithm.  walk_cylinders computes
M and phi0 for every word up to a depth in one pass over the word tree; it
is the only place M is computed.  build_table checks one depth of its rows,
and m_of_cylinder_set sums them over a cylinder union.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (
    AbsoluteContinuityViolation,
    DepthOverflow,
    ExactModeUnavailable,
    InadmissibleWord,
)
from .model import MarkovSystem
from .simulate import EmpiricalMeasure

EXACT = "exact"
Measure = Union[EmpiricalMeasure, str]
Word = tuple[str, ...]

WORD_CAP = 10_000_000  # words per depth, read at call time


@dataclass(frozen=True)
class CylinderSet:
    """A finite union of distinct depth-n cylinders."""

    words: tuple[Word, ...]

    def __post_init__(self):
        if not self.words:
            raise InadmissibleWord("cylinder set needs at least one word")
        depths = {len(w) for w in self.words}
        if depths == {0}:
            raise InadmissibleWord("cylinder words must have depth >= 1")
        if len(depths) != 1:
            raise InadmissibleWord("cylinder words must share one depth")
        if len(set(self.words)) != len(self.words):
            raise InadmissibleWord("cylinder words must be distinct")

    @property
    def depth(self) -> int:
        return len(self.words[0])


def cylinder_set(sys: MarkovSystem, words: Iterable[Sequence[str]]) -> CylinderSet:
    """Validated cylinder set; every word must be admissible."""
    normalized = tuple(tuple(w) for w in words)
    for w in normalized:
        sys.require_admissible(w)
    return CylinderSet(words=normalized)


def full_cylinder_set(sys: MarkovSystem, depth: int) -> CylinderSet:
    return CylinderSet(words=tuple(enumerate_words(sys, depth)))


def count_words(sys: MarkovSystem, n: int) -> int:
    """Number of admissible length-n words, by dynamic programming."""
    counts = {v.index: 1 for v in sys.vertices}
    for _ in range(n):
        counts = {v.index: sum(counts[e.target] for e in sys.out_edges(v.index))
                  for v in sys.vertices}
    return sum(counts.values())


def _require_within_cap(sys: MarkovSystem, n: int) -> None:
    total = count_words(sys, n)
    if total > WORD_CAP:
        raise DepthOverflow(
            f"{total} admissible words of depth {n} exceed the cap {WORD_CAP}")


def enumerate_words(sys: MarkovSystem, n: int) -> list[Word]:
    """All admissible length-n words, lexicographic by edge id sequence."""
    if n < 1:
        raise ValueError("depth must be >= 1")
    _require_within_cap(sys, n)
    out: list[Word] = []

    def extend(prefix: list[str], vertex: int) -> None:
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for e in sys.out_edges(vertex):
            prefix.append(e.id)
            extend(prefix, e.target)
            prefix.pop()

    for v in sorted(v.index for v in sys.vertices):
        extend([], v)
    return out


# A chain state is a pair (probability, point): the probability that the
# chain realizes the word read so far, and where that word leaves it.  Every
# cylinder quantity is a fold of one one-edge step over a word; the step
# multiplies by p_e at the current point and then moves the point by w_e,
# except at a leaf, where nothing reads the point.  Three kinds of state; the
# walk steps all three, phi0_cyl only the point state:
#   samples     (array over the mu samples, (N, k) array)   Monte Carlo M
#   stationary  (float, None)                                exact M
#   point       (float, (k,) array)                          phi0, from a base point

def _samples_step(state, e, leaf: bool):
    probs, pts = state
    p_e = e.prob.value_many(pts)
    p_e *= probs  # in place saves a temporary; the product commutes exactly
    return p_e, None if leaf else e.map.apply_many(pts)


def _stationary_step(state, e, leaf: bool):
    return state[0] * e.prob.alpha, None


def _point_step(state, e, leaf: bool):
    prob, y = state
    return prob * e.prob.value(y), None if leaf else e.map.apply(y)


def _mass_chain(sys: MarkovSystem, measure: Measure):
    """(step, root state of a start vertex, (M, stderr) of a final
    probability) for the chain mass under `measure`."""
    if isinstance(measure, str):
        if measure != EXACT:
            raise ValueError(f"unknown measure mode {measure!r}")
        pi = stationary_vertex_distribution(sys)
        return (_stationary_step, lambda v: (float(pi[v - 1]), None),
                lambda value: (value, 0.0))
    return (_samples_step,
            lambda v: ((measure.vertices == v).astype(float), measure.points),
            measure.average)


def phi0_cyl(sys: MarkovSystem, word: Sequence[str]) -> float:
    """Base measure of a cylinder: the support-averaged chain probability
    from the base point of the word's start vertex."""
    edges = sys.require_admissible(word)
    start = edges[0].source
    if start not in sys.support_set:
        return 0.0
    state, last = (1.0, sys.base_point(start)), len(edges) - 1
    for i, e in enumerate(edges):
        state = _point_step(state, e, i == last)
    return state[0] / len(sys.support_set)


def stationary_vertex_distribution(sys: MarkovSystem) -> np.ndarray:
    """Stationary law of the vertex chain for constant probabilities."""
    if not sys.all_constant_probabilities:
        raise ExactModeUnavailable(
            "stationary vertex chain needs constant probability functions")
    n = len(sys.vertices)
    p = np.zeros((n, n))
    for e in sys.edges:
        p[e.source - 1, e.target - 1] += e.prob.alpha
    a = p.T - np.eye(n)
    a[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        pi = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        raise ExactModeUnavailable(
            "vertex chain has no unique stationary distribution") from None
    if np.any(pi < -1e-12):
        raise ExactModeUnavailable("stationary solve produced negative mass")
    return np.maximum(pi, 0.0)


@dataclass(frozen=True, eq=False)
class CylinderRows:
    """Unchecked M, M standard error and phi0 of every word at one depth,
    in enumerate_words order, or only of the words a walk followed past its
    full depth (complete is False)."""

    words: tuple[Word, ...]
    m_values: np.ndarray
    stderrs: np.ndarray
    phi0_values: np.ndarray
    complete: bool


def _read_only(values: list[float]) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def walk_cylinders(sys: MarkovSystem, n_max: int, measure: Measure,
                   along: Iterable[Sequence[str]] = ()) -> dict[int, CylinderRows]:
    """Rows of every depth 1..n_max from one depth-first walk of the word tree.

    Past n_max (which may be 0) the walk follows only the prefixes of the
    `along` words, so a deep word costs one step per edge; those rows are
    not complete.  Each child node extends its parent's chain states by one
    edge, so every word costs one step, and exact mode solves the stationary
    law once.  The walk holds one state per level of the current path.  Per
    word the floating-point operations of phi0 are those of phi0_cyl.  The
    rows are unchecked; build_table checks them.
    """
    along = [tuple(w) for w in along]
    if n_max < (0 if along else 1):
        raise ValueError("depth must be >= 1, or >= 0 with words to follow")
    if n_max:
        _require_within_cap(sys, n_max)
    # prefixes of the followed words past n_max, and those the walk extends
    follow = {w[:i] for w in along for i in range(n_max + 1, len(w) + 1)}
    extend = {w[:i] for w in along for i in range(n_max, len(w))}
    step, root, reduce = _mass_chain(sys, measure)
    n_support = len(sys.support_set)
    found = {n: ([], [], [], [])
             for n in range(1, max([n_max, *map(len, along)]) + 1)}
    # explicit stack of (word, out-edges not yet taken, M state, phi0 state)
    # per level of the current path; a recursive closure would be a
    # reference cycle that keeps the rows alive until the cyclic collector
    stack = []
    for v in sorted(v.index for v in sys.vertices):
        base = (1.0, sys.base_point(v)) if v in sys.support_set else None
        stack.append(((), iter(sys.out_edges(v)), root(v), base))
        while stack:
            word, edges, mass, base = stack[-1]
            e = next(edges, None)
            if e is None:
                stack.pop()
                continue
            child = word + (e.id,)
            if len(child) > n_max and child not in follow:
                continue
            leaf = len(child) >= n_max and child not in extend
            child_mass = step(mass, e, leaf)
            child_base = None if base is None else _point_step(base, e, leaf)
            m, err = reduce(child_mass[0])
            words, m_vals, errs, phi_vals = found[len(child)]
            words.append(child)
            m_vals.append(m)
            errs.append(err)
            phi_vals.append(0.0 if child_base is None
                            else child_base[0] / n_support)
            if not leaf:
                stack.append((child, iter(sys.out_edges(e.target)),
                              child_mass, child_base))
    return {n: CylinderRows(words=tuple(words), m_values=_read_only(m_vals),
                            stderrs=_read_only(errs),
                            phi0_values=_read_only(phi_vals),
                            complete=n <= n_max)
            for n, (words, m_vals, errs, phi_vals) in found.items()}


def walked_to(sys: MarkovSystem, n: int, measure: Measure,
              rows: dict[int, CylinderRows] | None) -> dict[int, CylinderRows]:
    """`rows` when it holds every word of depth n, else a fresh walk."""
    if rows is not None and n in rows and rows[n].complete:
        return rows
    return walk_cylinders(sys, n, measure)


@dataclass(frozen=True, eq=False)
class CylinderTable:
    """Per-word M, phi0, Z = M/phi0, log Z, and M standard errors at one depth."""

    depth: int
    words: tuple[Word, ...]
    m_values: np.ndarray
    phi0_values: np.ndarray
    z_values: np.ndarray
    logz_values: np.ndarray
    stderrs: np.ndarray
    mode: str

    def __len__(self) -> int:
        return len(self.words)

    def z_by_word(self) -> dict[Word, float]:
        return {w: float(z) for w, z in zip(self.words, self.z_values)}

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["word", "M", "phi0", "Z", "logZ", "stderr"])
            for i, w in enumerate(self.words):
                writer.writerow([
                    ".".join(w),
                    repr(float(self.m_values[i])),
                    repr(float(self.phi0_values[i])),
                    repr(float(self.z_values[i])),
                    repr(float(self.logz_values[i])),
                    repr(float(self.stderrs[i])),
                ])


def build_table(sys: MarkovSystem, n: int, measure: Measure,
                rows: dict[int, CylinderRows] | None = None) -> CylinderTable:
    """Depth-n cylinder table over every admissible word.

    `rows` is a walk_cylinders result under the same measure; the
    table reads depth n from it, and walks for itself when it has none.
    Raises AbsoluteContinuityViolation when a word carries chain mass beyond
    sampling noise but zero base measure, which signals that the support set
    misses a vertex the chain visits.
    """
    raw = walked_to(sys, n, measure, rows)[n]
    exact = isinstance(measure, str)
    m_vals, phi_vals, errs = raw.m_values, raw.phi0_values, raw.stderrs

    z_list, logz_list = [], []
    for w, m, phi, err in zip(raw.words, m_vals.tolist(), phi_vals.tolist(),
                              errs.tolist()):
        if phi > 0.0:
            z = m / phi
            z_list.append(z)
            logz_list.append(math.log(z) if z > 0.0 else -math.inf)
        else:
            tol = 0.0 if exact else 3.0 * err
            if m > tol:
                raise AbsoluteContinuityViolation(
                    f"word {'.'.join(w)} has chain mass {m:.3e} but zero "
                    f"base measure; the support set is too small")
            z_list.append(0.0)
            logz_list.append(0.0)
    z_vals, logz_vals = _read_only(z_list), _read_only(logz_list)

    total_m = math.fsum(m_vals)
    total_phi = math.fsum(phi_vals)
    m_tol = 1e-12 if exact else 3.0 * math.sqrt(float(np.sum(errs ** 2))) + 1e-12
    if abs(total_m - 1.0) > m_tol:
        raise AbsoluteContinuityViolation(
            f"depth-{n} chain masses sum to {total_m!r}, not 1")
    if abs(total_phi - 1.0) > 1e-12:
        raise AbsoluteContinuityViolation(
            f"depth-{n} base measures sum to {total_phi!r}, not 1")

    return CylinderTable(depth=n, words=raw.words, m_values=m_vals,
                         phi0_values=phi_vals, z_values=z_vals,
                         logz_values=logz_vals, stderrs=errs,
                         mode=EXACT if exact else "monte_carlo")


def m_of_cylinder_set(sys: MarkovSystem, q: CylinderSet, measure: Measure,
                      rows: dict[int, CylinderRows] | None = None
                      ) -> tuple[float, float]:
    """Chain mass of a finite cylinder union (words are disjoint by depth)
    and its standard error, summed from `rows`, a walk_cylinders result under
    the same measure, or from a walk along q's words when `rows` lacks one."""
    raw = (rows or {}).get(q.depth)
    if raw is None or not set(q.words) <= set(raw.words):
        for w in q.words:
            sys.require_admissible(w)  # raises InadmissibleWord
        raw = walk_cylinders(sys, 0, measure, along=q.words)[q.depth]
    index = {w: i for i, w in enumerate(raw.words)}
    at = [index[w] for w in q.words]
    return (math.fsum(raw.m_values[at]),
            math.sqrt(math.fsum(np.square(raw.stderrs[at]))))
