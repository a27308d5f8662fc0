"""Cylinder measures and the per-cylinder density table.

A depth-n cylinder is the set of sequences agreeing with an admissible edge
word on coordinates 1..n.  Three set functions are computed per word: the
chain mass M (stationary chain in exact mode, weighted average of chain
probabilities over the atoms of a measure in Monte Carlo mode), the base
measure phi0 (average of chain probabilities started at the support base
points), and their ratio Z with its logarithm.  walk_cylinders computes
M and phi0 for every word up to a depth in one pass over the word tree, or
phi0 alone when it is given no chain measure; it is the only code that
steps through words.  enumerate_words and phi0_cyl are reads of it,
build_table checks one depth of its rows, and m_of_cylinder_set sums them
over a cylinder union.
"""

from __future__ import annotations

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
from .simulate import EmpiricalMeasure, write_csv

EXACT = "exact"
Measure = Union[EmpiricalMeasure, str, None]  # None: no chain measure
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
    """Number of admissible length-n words, by dynamic programming, or the
    first count past WORD_CAP at a depth up to n.  Every word extends, so
    the count never falls as the depth grows, and a count past the cap
    stays past it."""
    counts = {v.index: 1 for v in sys.vertices}
    for _ in range(n):
        counts = {v.index: sum(counts[e.target] for e in sys.out_edges(v.index))
                  for v in sys.vertices}
        if sum(counts.values()) > WORD_CAP:
            break
    return sum(counts.values())


def enumerate_words(sys: MarkovSystem, n: int) -> list[Word]:
    """All admissible length-n words, in the walk's order."""
    return list(walk_cylinders(sys, n, None)[n].words)


# A chain state is a pair (probability, point): the probability that the
# chain realizes the word read so far, and where that word leaves it.  Every
# cylinder quantity is a fold of one one-edge step over a word; the step
# multiplies by p_e at the current point and then moves the point by w_e,
# except at a leaf, where nothing reads the point.  Three kinds of state:
#   atoms       (array over the mu atoms, (N, k) array)     M under mu
#   stationary  (float, None)                                exact M, or 0.0
#                                                            with no measure
#   point       (float, (k,) array)                          phi0, from a base point

def _atoms_step(state, e, leaf: bool):
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
    """(step, root state of a start vertex, M of a final probability) for
    the chain mass under `measure`; with no measure the mass is 0 on every
    word."""
    if measure is None:
        return _stationary_step, lambda v: (0.0, None), float
    if isinstance(measure, str):
        if measure != EXACT:
            raise ValueError(f"unknown measure mode {measure!r}")
        pi = stationary_vertex_distribution(sys)
        return _stationary_step, lambda v: (float(pi[v - 1]), None), float
    return (_atoms_step,
            lambda v: ((measure.vertices == v).astype(float), measure.points),
            measure.average)


def phi0_cyl(sys: MarkovSystem, word: Sequence[str]) -> float:
    """Base measure of a cylinder: the support-averaged chain probability
    from the base point of the word's start vertex."""
    sys.require_admissible(word)
    rows = walk_cylinders(sys, 0, None, along=[word])
    return float(rows[len(word)].phi0_values[0])


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
    """Unchecked M and phi0 of every word at one depth, in the walk's order,
    or only of the words a walk followed past its full depth (complete is
    False)."""

    words: tuple[Word, ...]
    m_values: np.ndarray
    phi0_values: np.ndarray
    complete: bool


def _read_only(values: list[float]) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def walk_cylinders(sys: MarkovSystem, n_max: int, measure: Measure,
                   along: Iterable[Sequence[str]] = ()) -> dict[int, CylinderRows]:
    """Rows of every depth 1..n_max from one depth-first walk of the word tree.

    Words come by start vertex, then lexicographic by edge ids.  Past n_max
    (which may be 0) the walk follows only the prefixes of the `along`
    words, so a deep word costs one step per edge; those rows are not
    complete.  Each child node extends its parent's chain states by one
    edge, so every word costs one step, and exact mode solves the stationary
    law once.  The walk holds one state per level of the current path.
    With measure None it walks phi0 alone and its M rows are 0.
    The rows are unchecked; build_table checks them.
    """
    along = [tuple(w) for w in along]
    if n_max < (0 if along else 1):
        raise ValueError("depth must be >= 1, or >= 0 with words to follow")
    if n_max and count_words(sys, n_max) > WORD_CAP:
        raise DepthOverflow(
            f"the admissible words of depth {n_max} exceed the cap {WORD_CAP}")
    # prefixes of the followed words past n_max, and those the walk extends
    follow = {w[:i] for w in along for i in range(n_max + 1, len(w) + 1)}
    extend = {w[:i] for w in along for i in range(n_max, len(w))}
    step, root, reduce = _mass_chain(sys, measure)
    n_support = len(sys.support_set)
    found = {n: ([], [], [])
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
            words, m_vals, phi_vals = found[len(child)]
            words.append(child)
            m_vals.append(reduce(child_mass[0]))
            phi_vals.append(0.0 if child_base is None
                            else child_base[0] / n_support)
            if not leaf:
                stack.append((child, iter(sys.out_edges(e.target)),
                              child_mass, child_base))
    return {n: CylinderRows(words=tuple(words), m_values=_read_only(m_vals),
                            phi0_values=_read_only(phi_vals),
                            complete=n <= n_max)
            for n, (words, m_vals, phi_vals) in found.items()}


def walked_to(sys: MarkovSystem, n: int, measure: Measure,
              rows: dict[int, CylinderRows] | None) -> dict[int, CylinderRows]:
    """`rows` when it holds every word of depth n, else a fresh walk."""
    if rows is not None and n in rows and rows[n].complete:
        return rows
    return walk_cylinders(sys, n, measure)


@dataclass(frozen=True, eq=False)
class CylinderTable:
    """Per-word M, phi0, Z = M/phi0 and log Z at one depth."""

    words: tuple[Word, ...]
    m_values: np.ndarray
    phi0_values: np.ndarray
    z_values: np.ndarray
    logz_values: np.ndarray

    def __len__(self) -> int:
        return len(self.words)

    def to_csv(self, path) -> None:
        """One row per word, led by the dotted word; write_csv formats each
        distinct number of a block once.  Words are quoted as csv.writer
        quotes them, which the table checks once, on its edge ids.  The
        last column, stderr, is always 0.0: M carries no standard error,
        and the column is kept for readers of the six-column format."""
        text = ".".join
        if any(c in e for e in set().union(*self.words) for c in ',"\r\n'):
            text = _quoted_word
        write_csv(path, ["word", "M", "phi0", "Z", "logZ", "stderr"],
                  lambda rows: map(text, self.words[rows]),
                  [self.m_values, self.phi0_values, self.z_values,
                   self.logz_values, np.zeros(len(self.words))])


def _quoted_word(word: Word) -> str:
    """The dotted word, quoted when it holds a delimiter, a quote or a line
    break."""
    text = ".".join(word)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def build_table(sys: MarkovSystem, n: int, measure: Measure,
                rows: dict[int, CylinderRows] | None = None) -> CylinderTable:
    """Depth-n cylinder table over every admissible word.

    `rows` is a walk_cylinders result under the same measure; the table
    reads depth n from it, and walks for itself when it has none.  A word
    of zero base measure and zero chain mass gets Z = log Z = 0; with chain
    mass it raises AbsoluteContinuityViolation: the support set misses a
    vertex the chain visits.  So do chain masses or base measures that do
    not sum to 1 within 1e-12 and n times sys.normalization_gap.
    """
    raw = walked_to(sys, n, measure, rows)[n]
    m_vals, phi_vals = raw.m_values, raw.phi0_values

    z_list, logz_list = [], []
    for w, m, phi in zip(raw.words, m_vals.tolist(), phi_vals.tolist()):
        if phi > 0.0:
            z = m / phi
            z_list.append(z)
            logz_list.append(math.log(z) if z > 0.0 else -math.inf)
        elif m > 0.0:
            raise AbsoluteContinuityViolation(
                f"word {'.'.join(w)} has chain mass {m:.3e} but zero "
                f"base measure; the support set is too small")
        else:
            z_list.append(0.0)
            logz_list.append(0.0)

    # out-edge probabilities may sum to 1 only within the system's
    # normalization gap g, so n levels may move either sum by n g
    total_m = math.fsum(m_vals)
    total_phi = math.fsum(phi_vals)
    slack = 1e-12 + n * sys.normalization_gap
    if abs(total_m - 1.0) > slack:
        raise AbsoluteContinuityViolation(
            f"depth-{n} chain masses sum to {total_m!r}, not 1")
    if abs(total_phi - 1.0) > slack:
        raise AbsoluteContinuityViolation(
            f"depth-{n} base measures sum to {total_phi!r}, not 1")

    return CylinderTable(words=raw.words, m_values=m_vals, phi0_values=phi_vals,
                         z_values=_read_only(z_list),
                         logz_values=_read_only(logz_list))


def m_of_cylinder_set(sys: MarkovSystem, q: CylinderSet, measure: Measure,
                      rows: dict[int, CylinderRows] | None = None
                      ) -> float:
    """Chain mass of a finite cylinder union (words are disjoint by depth),
    summed from `rows`, a walk_cylinders result under the same measure, or
    from a walk along q's words when `rows` lacks one."""
    raw = (rows or {}).get(q.depth)
    if raw is None or not set(q.words) <= set(raw.words):
        for w in q.words:
            sys.require_admissible(w)  # raises InadmissibleWord
        raw = walk_cylinders(sys, 0, measure, along=q.words)[q.depth]
    index = {w: i for i, w in enumerate(raw.words)}
    at = [index[w] for w in q.words]
    return math.fsum(raw.m_values[at])
