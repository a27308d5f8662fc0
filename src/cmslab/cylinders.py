"""Cylinder measures and the per-cylinder density table.

A depth-n cylinder is the set of sequences agreeing with an admissible edge
word on coordinates 1..n.  Three set functions are computed per word: the
chain mass M (stationary chain in exact mode, weighted average of chain
probabilities over the atoms of a measure in Monte Carlo mode), the base
measure phi0 (average of chain probabilities started at the support base
points), and their ratio Z with its logarithm.  walk_cylinders computes M
and phi0 for every word up to a depth in one pass over the word tree, or
phi0 alone when it is given no chain measure; it is the only code that
steps through words, one step per tree node of one chain state that
carries both (atoms under a measure, scalar otherwise).  It returns a Walk,
which every reader takes: enumerate_words and phi0_cyl read one,
build_table checks one depth of its rows, and m_of_cylinder_set sums them.
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


def _walk_cap() -> int:
    """The cap on depth times the nodes of a walk's word tree, which bounds
    the walk's steps and the edge ids its rows and stack hold: 2 WORD_CAP
    times WORD_CAP's bit length.  A tree that branches at every vertex
    stays below it up to the word cap: it has fewer than twice as many
    nodes as leaves, and fewer levels than that bit length."""
    return 2 * WORD_CAP * WORD_CAP.bit_length()


def _tree_counts(sys: MarkovSystem, n: int) -> tuple[int, int]:
    """(words of depth n, nodes of the word tree to depth n, its roots
    included): 1^T A^n 1 and the sum over m <= n of 1^T A^m 1, for the
    integer adjacency matrix A.  Both are read off B^n, B = [[A, I], [0, I]],
    whose top blocks are A^n and the sum over m < n of A^m.  B^n comes by
    squaring, in O(V^3 log n), with every entry held at the walk cap + 1: a
    product of nonnegative integer matrices so held is the true product
    held, so each count is exact up to the walk cap and past it otherwise."""
    v = len(sys.vertices)
    top = _walk_cap() + 1
    b = np.zeros((2 * v, 2 * v), dtype=object)
    b[:v, v:] = b[v:, v:] = np.identity(v, dtype=object)
    for e in sys.edges:
        b[e.source - 1, e.target - 1] += 1
    power = np.identity(2 * v, dtype=object)
    while n:
        if n & 1:
            power = np.minimum(power @ b, top)
        n >>= 1
        if n:
            b = np.minimum(b @ b, top)
    words = int(power[:v, :v].sum())
    return words, words + int(power[:v, v:].sum())


def count_words(sys: MarkovSystem, n: int) -> int:
    """Number of admissible length-n words in O(V^3 log n) whatever n;
    exact up to _walk_cap(), and past it otherwise."""
    return _tree_counts(sys, n)[0]


def check_word_cap(sys: MarkovSystem, n: int, where: str = "") -> None:
    """DepthOverflow, led by `where`, when the words of depth n pass
    WORD_CAP, or n times the nodes of the walk to depth n pass the walk
    cap; the second binds only on a graph with a single-edge vertex, such
    as a loop, whose walk would hold a word of every length up to n."""
    words, nodes = _tree_counts(sys, n)
    if words > WORD_CAP:
        raise DepthOverflow(f"{where}depth {n} exceeds the word cap {WORD_CAP}")
    if n * nodes > _walk_cap():
        raise DepthOverflow(f"{where}depth {n} exceeds the walk cap "
                            f"{_walk_cap()} on depth times tree nodes")


def enumerate_words(sys: MarkovSystem, n: int) -> list[Word]:
    """All admissible length-n words, in the walk's order."""
    return list(walk_cylinders(sys, n, None).rows[n].words)


# Every cylinder quantity is a fold of one one-edge step over a word.  A
# chain state leads with (M, Phi) of the word read so far, Phi = |S| phi0
# (1.0 at a support vertex's root, 0.0 at another's).  The step extends a
# parent's state by an edge e; a leaf's state is read for (M, Phi) alone.
# Both kinds multiply Phi by the same p_e at the same orbit point of the
# base point, so Phi takes the same bits under every measure:
#   scalar  (M, Phi, (k,) point or None)  exact M, or 0.0 with no measure.
#           The step multiplies both by p_e at the point and moves the
#           point by w_e, except at a leaf.  The point is None when every
#           probability is constant: p_e is alpha, which value(y) = alpha +
#           0 . y equals bit for bit, and no point moves.
#   atoms   (M, Phi, x, P, S, A, b)  M under mu, over the N mu atoms of the
#           start vertex (the atoms of other vertices carry no mass of the
#           word): x, the (N, k) atoms less the start vertex's base point,
#           which never move; P, each atom's weight times its chain
#           probability; S = P^T x, their first moment; and the word's
#           composed map, base + x -> A x + b.  The step relies on p_e being
#           affine (ProbabilityFunction has only the constant and affine
#           families): at an atom's image p_e is x . g + c, g = A^T beta_e
#           and c = alpha_e + beta_e . b, p_e at the base point's orbit, so
#           M(ue) = S . g + c M(u) in O(k) and Phi(ue) = c Phi(u).  A child
#           with children of its own reweighs its atoms in one pass,
#           P_ue = (x . g + c) P and S_ue = P_ue^T x, and composes
#           (A_e A, A_e b + b_e); a leaf does no per-atom work.  Centring x
#           keeps x . g small next to c.

def _reweigh(x: np.ndarray, probs: np.ndarray, g: np.ndarray,
             c: float) -> tuple[np.ndarray, np.ndarray]:
    """The per-atom pass of an atoms step: each chain probability times
    x . g + c at its atom, and the first moment of the products."""
    out = x @ g
    out += c
    out *= probs  # in place saves a temporary; the product commutes exactly
    return out, out @ x


def _atoms_step(state, e, leaf: bool):
    mass, phi, x, probs, moment, linear, offset = state
    beta = e.prob.beta
    g = beta @ linear  # A^T beta_e
    c = e.prob.alpha + float(beta @ offset)
    child = float(moment @ g) + c * mass, phi * c
    if leaf:
        return child
    return (*child, x, *_reweigh(x, probs, g, c), e.map.linear @ linear,
            e.map.linear @ offset + e.map.offset)


def _scalar_step(state, e, leaf: bool):
    mass, phi, y = state
    p = e.prob.alpha if y is None else e.prob.value(y)
    return mass * p, phi * p, None if leaf or y is None else e.map.apply(y)


def _chain(sys: MarkovSystem, measure: Measure):
    """(step, root state of a start vertex) of the one chain a walk under
    `measure` steps; (M, Phi) leads every state, and with no measure M is 0
    on every word.  Under mu a word is rooted at its start vertex's atoms
    alone, each carrying its weight, with the identity map from the
    vertex's base point: M of the root is the vertex's mass."""
    support = sys.support_set
    if measure is None:
        moves = not sys.all_constant_probabilities
        return _scalar_step, lambda v: (
            0.0, float(v in support), sys.base_point(v) if moves else None)
    if isinstance(measure, str):
        if measure != EXACT:
            raise ValueError(f"unknown measure mode {measure!r}")
        pi = stationary_vertex_distribution(sys).tolist()
        return _scalar_step, lambda v: (pi[v - 1], float(v in support), None)

    def root(v):
        at = np.flatnonzero(measure.vertices == v)
        base = sys.base_point(v)
        x, probs = measure.points[at] - base, measure.weights[at]
        return (float(probs.sum()), float(v in support), x, probs, probs @ x,
                np.identity(sys.dimension), base)

    return _atoms_step, root


def phi0_cyl(sys: MarkovSystem, word: Sequence[str]) -> float:
    """Base measure of a cylinder: the support-averaged chain probability
    from the base point of the word's start vertex."""
    walk = walk_cylinders(sys, 0, None, along=[word])
    return float(walk.rows[len(word)].phi0_values[0])


def stationary_vertex_distribution(sys: MarkovSystem,
                                   where: str = "") -> np.ndarray:
    """Stationary law of the vertex chain; each error is led by `where`."""
    if not sys.all_constant_probabilities:
        raise ExactModeUnavailable(f"{where}stationary vertex chain needs "
                                   "constant probability functions")
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
        raise ExactModeUnavailable(f"{where}vertex chain has no unique "
                                   "stationary distribution") from None
    if np.any(pi < -1e-12):
        raise ExactModeUnavailable(f"{where}stationary solve produced "
                                   "negative mass")
    return np.maximum(pi, 0.0)


@dataclass(frozen=True, eq=False)
class CylinderRows:
    """Unchecked M and phi0 of words, in order: those of one depth of a walk,
    in the walk's order, or those Walk.along was asked for."""

    words: tuple[Word, ...]
    m_values: np.ndarray
    phi0_values: np.ndarray


def _read_only(values: list[float]) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def _by_word(rows: Iterable[CylinderRows]) -> dict[Word, tuple[float, float]]:
    """(M, phi0) of every word the rows hold."""
    return {w: pair for raw in rows for w, pair in zip(
        raw.words, zip(raw.m_values.tolist(), raw.phi0_values.tolist()))}


@dataclass(frozen=True, eq=False)
class Walk:
    """The rows per depth of one walk of `system` under `measure` (None:
    phi0 alone, M 0 on every word), every word of depth 1..depth and past
    it the followed words; every reader takes one, with its measure."""

    system: MarkovSystem
    measure: Measure
    depth: int
    rows: dict[int, CylinderRows]

    def to(self, n: int) -> Walk:
        """This walk when it holds every word of depth n, else one fresh
        walk to depth n under its system and measure."""
        return self if n <= self.depth else walk_cylinders(
            self.system, n, self.measure)

    def along(self, words: Iterable[Word]) -> CylinderRows:
        """The rows of `words`, in their order: read from this walk where a
        row holds the word, and from one walk under its measure that
        follows the others."""
        words = tuple(words)
        found = _by_word(self.rows[n]
                         for n in {len(w) for w in words} & self.rows.keys())
        missing = [w for w in words if w not in found]
        if missing:
            found.update(_by_word(walk_cylinders(
                self.system, 0, self.measure, along=missing).rows.values()))
        return CylinderRows(
            words=words, m_values=_read_only([found[w][0] for w in words]),
            phi0_values=_read_only([found[w][1] for w in words]))


def walk_cylinders(sys: MarkovSystem, n_max: int, measure: Measure,
                   along: Iterable[Sequence[str]] = ()) -> Walk:
    """The Walk of every depth 1..n_max from one depth-first walk of the tree.

    Words come by start vertex, then lexicographic by edge ids.  Past n_max
    (which may be 0) the walk follows only the prefixes of the `along`
    words, so a deep word costs one step per edge, and at n_max 0 only
    followed words' start vertices are rooted.
    Each node takes one step of its parent's chain state, which carries M
    and phi0 together (with measure None M is 0); exact mode solves the
    stationary law once, and under a measure no atom or point moves.  The
    walk holds one state per level of the current path.  The rows are
    unchecked; build_table checks them.
    """
    along = [tuple(w) for w in along]
    for w in along:
        sys.require_admissible(w)  # raises InadmissibleWord
    if n_max < (0 if along else 1):
        raise ValueError("depth must be >= 1, or >= 0 with words to follow")
    check_word_cap(sys, n_max)
    # prefixes of the followed words past n_max, and those the walk extends
    follow = {w[:i] for w in along for i in range(n_max + 1, len(w) + 1)}
    extend = {w[:i] for w in along for i in range(n_max, len(w))}
    step, root = _chain(sys, measure)
    n_support = len(sys.support_set)
    found = {n: ([], [], [])
             for n in range(1, max([n_max, *map(len, along)]) + 1)}
    # explicit stack of (word, out-edges not yet taken, chain state) per
    # level of the current path; a recursive closure would be a reference
    # cycle that keeps the rows alive until the cyclic collector
    stack = []
    for v in sorted(v.index for v in sys.vertices):
        out = sys.out_edges(v)
        if not n_max and not any((e.id,) in follow for e in out):
            continue  # no followed word starts at v
        stack.append(((), iter(out), root(v)))
        while stack:
            word, edges, state = stack[-1]
            e = next(edges, None)
            if e is None:
                stack.pop()
                continue
            child = word + (e.id,)
            if len(child) > n_max and child not in follow:
                continue
            leaf = len(child) >= n_max and child not in extend
            child_state = step(state, e, leaf)
            words, m_vals, phi_vals = found[len(child)]
            words.append(child)
            m_vals.append(child_state[0])
            phi_vals.append(child_state[1] / n_support)
            if not leaf:
                stack.append((child, iter(sys.out_edges(e.target)),
                              child_state))
    return Walk(sys, measure, n_max, {
        n: CylinderRows(words=tuple(words), m_values=_read_only(m_vals),
                        phi0_values=_read_only(phi_vals))
        for n, (words, m_vals, phi_vals) in found.items()})


def _require_measure(walk: Walk) -> None:
    if walk.measure is None:
        raise ValueError("chain masses need a walk under a chain measure")


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
        distinct number of a block once.  The word is never quoted: an edge
        id holds no character csv.writer would quote (model._edge_id).  The
        last column, stderr, is always 0.0: M carries no standard error,
        and the column is kept for readers of the six-column format."""
        write_csv(path, ["word", "M", "phi0", "Z", "logZ", "stderr"],
                  lambda rows: map(".".join, self.words[rows]),
                  [self.m_values, self.phi0_values, self.z_values,
                   self.logz_values, np.zeros(len(self.words))])


def build_table(walk: Walk, n: int) -> CylinderTable:
    """Depth-n cylinder table over every admissible word, read from
    walk.to(n); ValueError on a walk with no measure.  A word of zero base
    measure and zero chain mass gets Z = log Z = 0; with chain mass it
    raises AbsoluteContinuityViolation: the support set misses a vertex the
    chain visits.  So do chain masses or base measures that do not sum to 1
    within 1e-12 and n times the system's normalization_gap.
    """
    _require_measure(walk)
    raw = walk.to(n).rows[n]
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
    slack = 1e-12 + n * walk.system.normalization_gap
    if abs(total_m - 1.0) > slack:
        raise AbsoluteContinuityViolation(
            f"depth-{n} chain masses sum to {total_m!r}, not 1")
    if abs(total_phi - 1.0) > slack:
        raise AbsoluteContinuityViolation(
            f"depth-{n} base measures sum to {total_phi!r}, not 1")

    return CylinderTable(words=raw.words, m_values=m_vals, phi0_values=phi_vals,
                         z_values=_read_only(z_list),
                         logz_values=_read_only(logz_list))


def m_of_cylinder_set(walk: Walk, q: CylinderSet) -> float:
    """Chain mass of a finite cylinder union (words are disjoint by depth),
    summed from the walk's rows of q's words (Walk.along); ValueError on a
    walk with no measure."""
    _require_measure(walk)
    return math.fsum(walk.along(q.words).m_values)
