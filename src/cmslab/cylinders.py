"""Cylinder measures and the per-cylinder density table.

A depth-n cylinder is the set of sequences agreeing with an admissible edge
word on coordinates 1..n.  Three set functions are computed per word: the
chain mass M (stationary chain in exact mode, weighted average of chain
probabilities over the atoms of a measure in Monte Carlo mode), the base
measure phi0 (average of chain probabilities started at the support base
points), and their ratio Z with its logarithm.  walk_cylinders computes M
and phi0 for every word up to a depth in one pass over the word tree (phi0
alone with no chain measure), one step per tree node of one chain state
that carries both (atoms under a measure, scalar otherwise); _fold takes the
same step once per edge of a word past a walk's depth.  They alone step
through words.

A walk holds no word tuple.  Each depth is four arrays: per word, the row
of its prefix one depth up (`parent`), the position of its last edge in
the system's edges (`edge`), M and phi0.  A row's children are contiguous,
in out-edge order, so the readers work by index arithmetic on whole arrays:
build_table and the divergences read the value arrays, Walk.along descends
the parents to a word's row, Walk.tails maps a word to its word less the
first edge for K*, and `words` rebuilds the tuples on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
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


def tree_power(sys: MarkovSystem, n: int) -> np.ndarray:
    """B^n for B = [[A, I], [0, I]], A the adjacency matrix: its top blocks
    are A^n and the sum over m < n of A^m.  It comes by squaring, in
    O(V^3 log n), in float64 with every entry held at the walk cap + 1: a
    sum of products of nonnegative integers that stays at or below the cap
    is exact (each term is below 2^53), and one past it rounds to at least
    the cap + 1, since rounding is monotone; so each entry, and each sum
    of entries, is exact up to the walk cap, and past it otherwise."""
    v = len(sys.vertices)
    top = float(_walk_cap() + 1)
    b = np.zeros((2 * v, 2 * v))
    b[:v, v:] = b[v:, v:] = np.identity(v)
    for e in sys.edges:
        b[e.source - 1, e.target - 1] += 1
    power = np.identity(2 * v)
    while n:
        if n & 1:
            power = np.minimum(power @ b, top)
        n >>= 1
        if n:
            b = np.minimum(b @ b, top)
    return power


def _tree_counts(sys: MarkovSystem, n: int) -> tuple[int, int]:
    """(words of depth n, nodes of the word tree to depth n, its roots
    included): 1^T A^n 1 and the sum over m <= n of 1^T A^m 1, read off
    tree_power; each count is exact up to the walk cap, and past it
    otherwise."""
    v = len(sys.vertices)
    power = tree_power(sys, n)
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
    return walk_cylinders(sys, n, None).rows[n].word_list()


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


def _fold(sys: MarkovSystem, measure: Measure, words: Iterable[Word]):
    """(M, phi0) of each word: the walk's step from its start vertex's root,
    a leaf step at its last edge alone, so a walk's float operations; one
    chain and one root per start vertex per call.  Raises InadmissibleWord."""
    step, root = _chain(sys, measure)
    roots, n_support, found = {}, len(sys.support_set), []
    for word in words:
        edges = sys.require_admissible(word)
        v = edges[0].source
        if v not in roots:
            roots[v] = root(v)
        state = roots[v]
        for e in edges[:-1]:
            state = step(state, e, False)
        mass, phi = step(state, edges[-1], True)[:2]
        found.append((mass, phi / n_support))
    return found


def phi0_cyl(sys: MarkovSystem, word: Sequence[str]) -> float:
    """Base measure of a cylinder: the support-averaged chain probability
    from the base point of the word's start vertex, one fold along it."""
    return float(_fold(sys, None, [word])[0][1])


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
    """Unchecked M and phi0 of the words of one depth of one walk, in the
    walk's order.  A word is two indexes: `parent`, the row of its prefix in
    `prefix`, the rows one depth up (at depth 1, where `prefix` is None, the
    start vertex's index - 1), and `edge`, the position of its last edge in
    the system's edges, whose ids are `ids`.  `words` builds the tuples on
    demand."""

    m_values: np.ndarray
    phi0_values: np.ndarray
    parent: np.ndarray
    edge: np.ndarray
    prefix: CylinderRows | None
    ids: np.ndarray

    def __len__(self) -> int:
        return len(self.m_values)

    def word_list(self, rows=slice(None)) -> list[Word]:
        """The words at `rows` (a slice or an index array), in that order."""
        columns, level = [], self
        while level is not None:
            columns.append(self.ids[level.edge[rows]].tolist())
            rows, level = level.parent[rows], level.prefix
        return list(zip(*reversed(columns)))

    @property
    def words(self) -> tuple[Word, ...]:
        return tuple(self.word_list())

    def dotted(self, rows: slice) -> list[str]:
        """The dotted words of the contiguous `rows`, each prefix text built
        once: the parents of contiguous rows are contiguous one depth up."""
        start, stop, _ = rows.indices(len(self))
        spans, level = [], self
        while level is not None and start < stop:
            spans.append((level, start, stop))
            start, stop = int(level.parent[start]), int(level.parent[stop - 1]) + 1
            level = level.prefix
        texts = np.array([], dtype=object)
        dots = np.array(["." + i for i in self.ids], dtype=object)
        for level, start, stop in reversed(spans):
            edges = level.edge[start:stop]
            texts = (texts[level.parent[start:stop] - offset] + dots[edges]
                     if level.prefix is not None else self.ids[edges])
            offset = start
        return texts.tolist()


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _edge_arrays(sys: MarkovSystem) -> tuple:
    """`position`, each edge id's position in sys.edges, then int32 arrays
    over edge positions and vertex positions (index - 1): `slots`, the
    positions of every vertex's out-edges in turn, in out-edge order;
    `first`, each vertex's first slot; `degree`, its out-degree; `target`,
    each edge's target vertex; and `rank`, each edge's place among its
    source's out-edges."""
    position = {e.id: i for i, e in enumerate(sys.edges)}
    slots = np.array([position[e.id] for v in range(1, len(sys.vertices) + 1)
                      for e in sys.out_edges(v)], dtype=np.int32)
    degree = sys.out_degrees[1:].astype(np.int32)
    first = np.cumsum(degree, dtype=np.int32) - degree
    rank = np.empty(len(slots), dtype=np.int32)
    rank[slots] = np.arange(len(slots), dtype=np.int32) - np.repeat(first, degree)
    target = np.array([e.target - 1 for e in sys.edges], dtype=np.int32)
    return position, slots, first, degree, target, rank


def _index_rows(sys: MarkovSystem, n_max: int,
                edge_arrays: tuple) -> list[tuple[np.ndarray, ...]]:
    """(parent, edge) of every depth 1..n_max, one depth at a time: the
    children of a row are its last vertex's out-edges in order, so depth n
    repeats each row of depth n - 1 by that vertex's out-degree.  The rows
    come in the walk's order, by start vertex and then by out-edge order."""
    _, slots, first, degree, target, _ = edge_arrays
    edge_type = np.min_scalar_type(len(sys.edges) - 1)
    at = np.arange(len(degree), dtype=np.int32)  # depth 0: the vertices
    levels = []
    for _ in range(n_max):
        counts = degree[at]
        parent = np.repeat(np.arange(len(at), dtype=np.int32), counts)
        slot = np.repeat(first[at] - (np.cumsum(counts, dtype=np.int32) - counts),
                         counts)
        slot += np.arange(len(slot), dtype=np.int32)
        edge = slots[slot].astype(edge_type)
        levels.append((parent, edge))
        at = target[edge]
    return levels


_STORE_ROWS = 4096  # leaf values a walk holds in lists before storing them


@dataclass(frozen=True, eq=False)
class Walk:
    """The rows of every word of depth 1..depth from one walk of `system`
    under `measure` (None: phi0 alone, M 0 on every word); every reader
    takes one, with its measure.  Each depth is index arrays and value
    arrays (CylinderRows), about 21 bytes per word; `edge_arrays` are the
    system's (_edge_arrays), which its readers index by."""

    system: MarkovSystem
    measure: Measure
    depth: int
    rows: dict[int, CylinderRows]
    edge_arrays: tuple = field(repr=False)

    def to(self, n: int) -> Walk:
        """This walk when it holds every word of depth n, else one fresh
        walk to depth n under its system and measure, which refuses n < 1
        (ValueError)."""
        return self if 0 < n <= self.depth else walk_cylinders(
            self.system, n, self.measure)

    def along(self, words: Iterable[Word]) -> dict[Word, tuple[float, float]]:
        """{word: (M, phi0)} of `words`, in their order: read from this
        walk's rows where it holds the word, found by descending from its
        start vertex one edge rank at a time, and folded under its measure
        for the others.  Raises InadmissibleWord."""
        found = dict.fromkeys(words)
        by_depth: dict[int, list[Word]] = {}
        for w in found:
            if len(w) in self.rows:
                by_depth.setdefault(len(w), []).append(w)
        position, *_, rank = self.edge_arrays
        for n, held in by_depth.items():
            edges = [self.system.require_admissible(w) for w in held]
            at = np.array([w[0].source - 1 for w in edges])
            ranks = rank[np.array([[position[e.id] for e in w] for w in edges])]
            for k in range(1, n + 1):
                at = np.searchsorted(self.rows[k].parent, at) + ranks[:, k - 1]
            rows = self.rows[n]
            found.update(zip(held, zip(rows.m_values[at].tolist(),
                                       rows.phi0_values[at].tolist())))
        missing = [w for w, pair in found.items() if pair is None]
        if missing:
            found.update(zip(missing, _fold(self.system, self.measure, missing)))
        return found

    def tails(self, n: int) -> list[np.ndarray]:
        """Per depth k = 1..n, the row at depth k - 1 of each depth-k word
        less its first edge (at k = 1 its last vertex's index - 1): the
        child, by the word's last edge, of the tail of its prefix."""
        *_, target, rank = self.edge_arrays
        out = [target[self.rows[1].edge]]
        for k in range(2, n + 1):
            rows = self.rows[k]
            out.append(np.searchsorted(self.rows[k - 1].parent,
                                       out[-1][rows.parent]) + rank[rows.edge])
        return out


def walk_cylinders(sys: MarkovSystem, n_max: int, measure: Measure) -> Walk:
    """The Walk of every depth 1..n_max from one depth-first walk of the tree.

    Words come by start vertex, then lexicographic by edge ids; their index
    arrays are laid out first (_index_rows).  Each node takes one step of
    its parent's chain state, which carries M and phi0 together (with
    measure None M is 0), and the values are stored in the rows' order;
    exact mode solves the stationary law once, and under a measure no atom
    or point moves.  With no measure a start vertex outside the support set
    is not walked: M and phi0 are 0.0 on every word below it.  The walk
    holds one state per level of the current path.  The rows are
    unchecked; build_table checks them.
    """
    if n_max < 1:
        raise ValueError("depth must be >= 1")
    check_word_cap(sys, n_max)
    step, root = _chain(sys, measure)
    edge_arrays = _edge_arrays(sys)
    levels = _index_rows(sys, n_max, edge_arrays)
    m_vals = [np.zeros(len(parent)) for parent, _ in levels]
    phi_vals = [np.zeros(len(parent)) for parent, _ in levels]
    # per depth, (M, Phi) stepped and not yet stored, and the row they start
    stepped = [([], []) for _ in levels]
    at = [0] * n_max
    bounds = np.arange(len(sys.vertices) + 1)  # each start vertex's rows
    starts = []
    for parent, _ in levels:
        bounds = np.searchsorted(parent, bounds)
        starts.append(bounds.tolist())

    def store():
        for i, (masses, phis) in enumerate(stepped):
            end = at[i] + len(masses)
            m_vals[i][at[i]:end] = masses
            phi_vals[i][at[i]:end] = phis
            at[i] = end
            masses.clear()
            phis.clear()

    for v in range(1, len(sys.vertices) + 1):
        if measure is None and v not in sys.support_set:
            continue
        at[:] = [start[v - 1] for start in starts]
        # explicit stack of (out-edges not yet taken, chain state) per level
        # of the current path; a recursive closure would be a reference
        # cycle that keeps the rows alive until the cyclic collector
        stack = [(iter(sys.out_edges(v)), root(v))]
        while stack:
            edges, state = stack[-1]
            n = len(stack)  # the children's depth
            if n == n_max:  # step every leaf child in one loop
                masses, phis = stepped[-1]
                for e in edges:
                    leaf = step(state, e, True)
                    masses.append(leaf[0])
                    phis.append(leaf[1])
                stack.pop()
                if len(masses) >= _STORE_ROWS:
                    store()
                continue
            e = next(edges, None)
            if e is None:
                stack.pop()
                continue
            child = step(state, e, False)
            masses, phis = stepped[n - 1]
            masses.append(child[0])
            phis.append(child[1])
            stack.append((iter(sys.out_edges(e.target)), child))
        store()

    ids = np.array([e.id for e in sys.edges], dtype=object)
    n_support, rows, prefix = len(sys.support_set), {}, None
    for n, ((parent, edge), m, phi) in enumerate(zip(levels, m_vals, phi_vals), 1):
        phi /= n_support
        prefix = rows[n] = CylinderRows(
            m_values=_read_only(m), phi0_values=_read_only(phi),
            parent=_read_only(parent), edge=_read_only(edge), prefix=prefix,
            ids=ids)
    return Walk(sys, measure, n_max, rows, edge_arrays)


def _require_measure(walk: Walk) -> None:
    if walk.measure is None:
        raise ValueError("chain masses need a walk under a chain measure")


@dataclass(frozen=True, eq=False)
class CylinderTable(CylinderRows):
    """Checked rows of one depth, with Z = M/phi0 and log Z per word."""

    z_values: np.ndarray
    logz_values: np.ndarray

    def to_csv(self, path) -> None:
        """One row per word, led by the dotted word; write_csv formats each
        distinct number of a block once, and `dotted` builds the block's
        words from the index arrays.  The word is never quoted: an edge id holds
        no character csv.writer would quote (model._edge_id).  The last
        column, stderr, is always 0.0: M carries no standard error, and the
        column is kept for readers of the six-column format."""
        write_csv(path, ["word", "M", "phi0", "Z", "logZ", "stderr"],
                  self.dotted,
                  [self.m_values, self.phi0_values, self.z_values,
                   self.logz_values, np.zeros(len(self))])


def build_table(walk: Walk, n: int) -> CylinderTable:
    """Depth-n cylinder table over every admissible word, read from
    walk.to(n); ValueError on a walk with no measure.  A word of zero base
    measure and zero chain mass gets Z = log Z = 0; with chain mass it
    raises AbsoluteContinuityViolation: the support set misses a vertex the
    chain visits.  So do chain masses or base measures that do not sum to 1
    within 1e-12 and n times the system's normalization_gap.  Z = M/phi0 is
    one numpy division, the same IEEE operation as Python's, and log Z is
    math.log of each positive Z (numpy's log may differ in the last bit).
    """
    _require_measure(walk)
    raw = walk.to(n).rows[n]
    m_vals, phi_vals = raw.m_values, raw.phi0_values
    based = phi_vals > 0.0
    orphans = np.flatnonzero(~based & (m_vals > 0.0))
    if len(orphans):
        word = raw.word_list(orphans[:1])[0]
        raise AbsoluteContinuityViolation(
            f"word {'.'.join(word)} has chain mass {m_vals[orphans[0]]:.3e} but "
            f"zero base measure; the support set is too small")

    # out-edge probabilities may sum to 1 only within the system's
    # normalization gap g, so n levels may move either sum by n g
    total_m = math.fsum(m_vals.tolist())
    total_phi = math.fsum(phi_vals.tolist())
    slack = 1e-12 + n * walk.system.normalization_gap
    if abs(total_m - 1.0) > slack:
        raise AbsoluteContinuityViolation(
            f"depth-{n} chain masses sum to {total_m!r}, not 1")
    if abs(total_phi - 1.0) > slack:
        raise AbsoluteContinuityViolation(
            f"depth-{n} base measures sum to {total_phi!r}, not 1")

    z_vals = np.zeros(len(raw))
    np.divide(m_vals, phi_vals, out=z_vals, where=based)
    logz_vals = np.where(based, -math.inf, 0.0)  # log 0 where phi0 > 0
    positive = z_vals > 0.0
    logz_vals[positive] = list(map(math.log, z_vals[positive].tolist()))
    return CylinderTable(**{f.name: getattr(raw, f.name) for f in fields(raw)},
                         z_values=_read_only(z_vals),
                         logz_values=_read_only(logz_vals))


def m_of_cylinder_set(walk: Walk, q: CylinderSet) -> float:
    """Chain mass of a finite cylinder union (words are disjoint by depth),
    the sum of M over Walk.along of q's words; ValueError on a walk with no
    measure."""
    _require_measure(walk)
    return math.fsum(m for m, _ in walk.along(q.words).values())
