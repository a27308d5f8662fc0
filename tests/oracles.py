"""Independent reference computations used to pin expected test values.

Everything here is deliberately written without reusing the library's
algorithms: direct series summation, eigenvector stationary laws, a
memoized exhaustive cover search, coding-map truncations folded afresh,
pushforward atoms folded one path at a time, and csv.writer's output.
The one exception is plain_cover_search, the cover search as it was before
its dominance memo and per-word bound: it reads the library's window and
charges and keeps only the search itself apart.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np


def direct_modulus_series(slope: float, ratio: float, scale: float,
                          n_terms: int = 400) -> float:
    """Plain term-by-term summation of min(slope * ratio^i * scale, 1)."""
    return math.fsum(min(slope * ratio ** i * scale, 1.0)
                     for i in range(n_terms))


def binomial_sigma(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


def stationary_via_eig(p: np.ndarray) -> np.ndarray:
    """Stationary law of a row-stochastic matrix via its left eigenvector."""
    vals, vecs = np.linalg.eig(p.T)
    idx = int(np.argmin(np.abs(vals - 1.0)))
    pi = np.real(vecs[:, idx])
    return pi / pi.sum()


def expected_running_max(p: np.ndarray, pi: np.ndarray, g: np.ndarray,
                         steps: int) -> float:
    """E[max(g(V_0), ..., g(V_steps))] for the vertex chain of transition
    matrix p started from pi, by a dynamic program over the law of the pair
    (vertex, running max)."""
    law = {(v, float(g[v])): float(pi[v]) for v in range(len(pi))}
    for _ in range(steps):
        nxt: dict[tuple[int, float], float] = {}
        for (v, top), mass in law.items():
            for t in np.flatnonzero(p[v]):
                key = (int(t), max(top, float(g[t])))
                nxt[key] = nxt.get(key, 0.0) + mass * float(p[v, t])
        law = nxt
    return math.fsum(mass * top for (_, top), mass in law.items())


def enumerate_paths(edges: list[tuple[str, int, int]], length: int
                    ) -> list[tuple[str, ...]]:
    """All admissible edge-id words of the given length, by brute filtering.

    edges: (id, source, target) triples.
    """
    by_id = {e[0]: e for e in edges}
    words = []
    for combo in itertools.product(sorted(by_id), repeat=length):
        ok = all(by_id[combo[i]][2] == by_id[combo[i + 1]][1]
                 for i in range(length - 1))
        if ok:
            words.append(combo)
    return words


def brute_min_cover_cost(target: int, pieces: list[tuple[float, int]]) -> float:
    """Exhaustive minimum cost of a disjoint piece family covering `target`.

    pieces are (cost, bitmask) pairs; memoized on the union mask, no cost
    pruning, so the search is independent of the library's branch and bound.
    """
    memo: dict[tuple[int, int], float] = {}

    def solve(covered: int, used: int) -> float:
        remaining = target & ~covered
        if not remaining:
            return 0.0
        key = (covered, used)
        if key in memo:
            return memo[key]
        bit = remaining & -remaining
        best = math.inf
        for cost, mask in pieces:
            if mask & bit and not (mask & used):
                sub = solve(covered | mask, used | mask)
                if cost + sub < best:
                    best = cost + sub
        memo[key] = best
        return best

    return solve(0, 0)


def plain_cover_search(sys, q, max_shift: int, max_depth: int,
                       budget: int) -> tuple[float, tuple, bool, int]:
    """(cost, pieces, exhaustive, nodes) of the branch and bound that cuts
    only on the incumbent: pool order, cheapest piece for the lowest
    uncovered window word first, no memo and no lower bound."""
    from cmslab.cover import _charges, _window

    spelled, index = _window(sys, q, max_shift, max(q.depth, max_depth),
                             max_depth)
    target = (1 << len(spelled)) - 1
    charge_of = _charges(sys, {*(word for _, word in index), *q.words})
    pool = sorted(((charge_of[word], shift, word, mask)
                   for (shift, word), mask in index.items()),
                  key=lambda p: (p[0], -p[1], p[2]))
    rank = {(shift, word): i for i, (_, shift, word, _) in enumerate(pool)}
    by_bit = [sorted(rank[piece] for piece in pieces)
              for pieces in spelled.values()]

    best_pieces = tuple((0, w) for w in q.words)  # the trivial cover
    best_cost = math.fsum(charge_of[w] for w in q.words)
    nodes = 0
    exhausted = False

    def dfs(covered: int, cost: float, chosen: list[int]) -> None:
        nonlocal best_cost, best_pieces, nodes, exhausted
        if exhausted:
            return
        remaining = target & ~covered
        if not remaining:
            if cost < best_cost:
                best_cost = cost
                best_pieces = tuple((pool[i][1], pool[i][2]) for i in chosen)
            return
        bit = (remaining & -remaining).bit_length() - 1
        for idx in by_bit[bit]:  # pool order: cheap pieces first
            nodes += 1
            if nodes > budget:
                exhausted = True
                return
            piece_cost, _, _, mask = pool[idx]
            if cost + piece_cost >= best_cost:
                break  # candidates for this word only get more expensive
            if mask & covered:
                continue
            chosen.append(idx)
            dfs(covered | mask, cost + piece_cost, chosen)
            chosen.pop()

    dfs(0, 0.0, [])
    cost = math.fsum(charge_of[w] for _, w in best_pieces)
    return cost, best_pieces, not exhausted, nodes


def fold_backward_orbit(sys, past) -> list[np.ndarray]:
    """Truncation points [X_m, ..., X_0] of a past word, each folded afresh:
    X_j runs the maps of edges j..0 from the base point of source(e_j), which
    is m(m+1)/2 map applications in all."""
    edges = [sys.edge(i) for i in past]
    orbit = []
    for start in range(len(edges)):
        x = sys.base_point(edges[start].source)
        for e in edges[start:]:
            x = e.map.apply(x)
        orbit.append(x)
    return orbit


def chain_cyl_prob(sys, state, word) -> float:
    """Probability that the chain started at `state` = (vertex, point)
    realizes the word: the plain product of p_e along the path."""
    edges = [sys.edge(i) for i in word]
    vertex, x = state
    if edges[0].source != vertex:
        return 0.0
    y = np.asarray(x, dtype=float)
    prob = 1.0
    for e in edges:
        prob *= e.prob.value(y)
        y = e.map.apply(y)
    return prob


def word_row(sys, word, measure, pi=None) -> tuple[float, float, float]:
    """(M, stderr, phi0) of one word, each computed from scratch for it.

    Exact mode (pi given, measure ignored) multiplies the stationary mass of
    the start vertex by the edge constants.  Monte Carlo mode takes the
    product of p_e over all measure samples, edge by edge, and its weighted
    mean.  phi0 is chain_cyl_prob from the start vertex's base point.  Per
    word the operations match the library's, so rows compare bit for bit.
    """
    edges = [sys.edge(i) for i in word]
    start = edges[0].source
    if pi is not None:
        m = float(pi[start - 1])
        for e in edges:
            m *= e.prob.alpha
        stderr = 0.0
    else:
        probs = (measure.vertices == start).astype(float)
        pts = measure.points
        for e in edges:
            probs = probs * e.prob.value_many(pts)
            pts = e.map.apply_many(pts)
        m = float(measure.weights @ probs)
        stderr = float(np.sqrt(np.sum((measure.weights * (probs - m)) ** 2)))
    phi0 = 0.0
    if start in sys.support_set:
        phi0 = (chain_cyl_prob(sys, (start, sys.base_point(start)), word)
                / len(sys.support_set))
    return m, stderr, phi0


def power_iteration_norm(a: np.ndarray, rel_tol: float = 1e-12,
                         max_iter: int = 100_000) -> float:
    """Spectral norm of `a` by power iteration on A^T A.

    The Rayleigh quotient approaches the top eigenvalue from below, so this
    is a lower estimate that converges to the largest singular value.
    """
    g = a.T @ a
    k = g.shape[0]
    # deterministic start, slightly asymmetric so it is not orthogonal to
    # the dominant eigenvector of typical matrices
    v = np.ones(k) + 1e-3 * np.arange(k)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = g @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        new_lam = float(v @ (g @ v))
        if abs(new_lam - lam) <= rel_tol * max(new_lam, 1e-300):
            lam = new_lam
            break
        lam = new_lam
    return math.sqrt(max(lam, 0.0))


def corner_values(f, lower, upper) -> list:
    """f evaluated at each of the 2^k corners of the box [lower, upper]."""
    return [f(np.array(corner))
            for corner in itertools.product(*zip(lower, upper))]


def pushforward_atoms(sys, levels: int) -> list[tuple[int, tuple, float]]:
    """(vertex, point, weight) of every length-`levels` path from a support
    base point, sorted, folding one path at a time: the atoms of mu_N
    before zero weights are dropped and the weights renormalized."""
    atoms = []

    def extend(vertex, x, weight, left):
        if left == 0:
            atoms.append((vertex, tuple(float(c) for c in x), weight))
            return
        for e in sys.out_edges(vertex):
            extend(e.target, e.map.apply(x), weight * e.prob.value(x), left - 1)

    support = sorted(sys.support_set)
    for v in support:
        extend(v, sys.base_point(v), 1.0 / len(support), levels)
    return sorted(atoms)


def csv_writer_text(header: list[str], rows) -> str:
    """What csv.writer writes for the header and the rows, every numpy or
    Python float cell as repr(float(cell)) and an int as itself."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    for row in rows:
        writer.writerow([c if isinstance(c, (str, int)) else repr(float(c))
                         for c in row])
    return out.getvalue()
