"""Independent reference computations used to pin expected test values.

Everything here is deliberately written without reusing the library's
algorithms: direct series summation, eigenvector stationary laws, a
memoized exhaustive cover search, coding-map truncations folded afresh
and checked one at a time, masses folded by moving every atom of a
measure, pushforward atoms folded one path at a time, the sampled chain, and
csv.writer's output.
There are three exceptions.  plain_cover_search is the cover search as it
was before its dominance memo and per-word bound: it reads the library's
window and charges and keeps only the search itself apart.  word_row's
Monte Carlo branch repeats the walk's first-moment arithmetic one word at a
time, so that rows compare bit for bit; folded_word_mass and
masked_word_mass check that arithmetic by moving the atoms.  tuple_walk is
the walk as it was when its rows held word tuples: the library's chain step
over the word tree, each word built as its prefix plus an edge, and
tuple_kstar reads K* off it by slicing and looking up each shifted word.
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
    uncovered window word first, no memo and no lower bound; its window and
    charges come from a base walk of its own, to the window's depth."""
    from cmslab.cover import _window, window_depth
    from cmslab.cylinders import walk_cylinders

    hi = max(q.depth, max_depth)
    walk = walk_cylinders(sys, window_depth(q.depth, max_shift, hi), None)
    spelled, index = _window(walk, q, max_shift, hi, max_depth)
    target = (1 << len(spelled)) - 1
    charge_of = {w: phi for w, (_, phi) in walk.along(
        {*(word for _, word in index), *q.words}).items()}
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


def word_row(sys, word, measure, pi=None) -> tuple[float, float]:
    """(M, phi0) of one word, each computed from scratch for it.

    Exact mode (pi given, measure ignored) multiplies the stationary mass of
    the start vertex by the edge constants.  Monte Carlo mode starts from
    the weights of the start vertex's atoms, centred at its base point, and
    the identity map from that point.  Along each edge, p_e at the atoms'
    images under the composed map is x . g + c; M becomes the first moment
    of the weights dotted with g plus c times M, and along every edge but
    the last the weights are multiplied by x . g + c and the edge map is
    composed in.  phi0 is chain_cyl_prob from the start vertex's base
    point.  Per word the operations match the library's, so rows compare
    bit for bit; folded_word_mass is the independent check of the Monte
    Carlo arithmetic.
    """
    edges = [sys.edge(i) for i in word]
    start = edges[0].source
    if pi is not None:
        m = float(pi[start - 1])
        for e in edges:
            m *= e.prob.alpha
    else:
        at = measure.vertices == start
        base = sys.base_point(start)
        x, probs = measure.points[at] - base, measure.weights[at]
        m, moment = float(probs.sum()), probs @ x
        linear, offset = np.identity(sys.dimension), base
        for j, e in enumerate(edges):
            g = e.prob.beta @ linear
            c = e.prob.alpha + float(e.prob.beta @ offset)
            m = float(moment @ g) + c * m
            if j + 1 < len(edges):
                probs = (x @ g + c) * probs
                moment = probs @ x
                linear, offset = (e.map.linear @ linear,
                                  e.map.linear @ offset + e.map.offset)
    phi0 = 0.0
    if start in sys.support_set:
        phi0 = (chain_cyl_prob(sys, (start, sys.base_point(start)), word)
                / len(sys.support_set))
    return m, phi0


def folded_word_mass(sys, word, measure) -> float:
    """M of one word by moving the points: start from the weights of the
    start vertex's atoms, multiply in p_e at the atoms edge by edge, move
    the atoms by w_e after each edge, and sum."""
    at = measure.vertices == sys.edge(word[0]).source
    probs, pts = measure.weights[at], measure.points[at]
    for e in (sys.edge(i) for i in word):
        probs = probs * e.prob.value_many(pts)
        pts = e.map.apply_many(pts)
    return float(probs.sum())


def masked_word_mass(sys, word, measure) -> float:
    """M of one word over every atom of `measure`: those of other start
    vertices enter with probability 0, p_e multiplies in edge by edge at
    every atom, and the weights average the products."""
    probs = (measure.vertices == sys.edge(word[0]).source).astype(float)
    pts = measure.points
    for e in (sys.edge(i) for i in word):
        probs = probs * e.prob.value_many(pts)
        pts = e.map.apply_many(pts)
    return float(measure.weights @ probs)


def cauchy_violation(sys, past, orbit) -> str | None:
    """The message of the first truncation of `orbit`, the backward orbit
    of `past`, whose step from the next shallower one passes a^j d plus
    the rounding slack, checked one truncation at a time; None when every
    step passes."""
    a, d = sys.contraction_rate, sys.max_displacement
    chain = [sys.base_point(sys.edge(past[-1]).target), *orbit[::-1]]
    slack = 1e-12 * max(1.0, d, max(float(np.max(np.abs(x))) for x in chain))
    for j in range(len(orbit)):
        gap = float(np.linalg.norm(chain[j + 1] - chain[j]))
        if gap > a ** j * d + slack:
            return (f"Cauchy inequality violated at depth {j}: "
                    f"{gap:.3e} > {a ** j * d:.3e}")
    return None


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


def chain_step(sys, state, rng):
    """One transition of the chain on pairs (vertex, point): a uniform draw
    picks the out-edge, scanning the edges in id order and accumulating
    p_e at the point.  Returns (edge, next state)."""
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


def chain_samples(sys, n_samples: int, burn_in: int, seed: int):
    """(vertices, points) of one chain run from the first support vertex's
    base point, after burn_in steps: an ergodic sample of the invariant
    measure, each point of weight 1/n_samples."""
    rng = np.random.default_rng(seed)
    first = min(sys.support_set)
    state = (first, sys.base_point(first))
    for _ in range(burn_in):
        state = chain_step(sys, state, rng)[1]
    verts = np.empty(n_samples, dtype=int)
    pts = np.empty((n_samples, sys.dimension))
    for i in range(n_samples):
        state = chain_step(sys, state, rng)[1]
        verts[i], pts[i] = state
    return verts, pts


def chain_contraction(sys, measure, i_max: int, n_mc: int, seed: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo mean and standard error, for i = 1..i_max, of the
    distance after i chain steps between a point drawn from `measure` and
    its vertex's base point, both moved by the edges the chain takes from
    the drawn point."""
    rng = np.random.default_rng(seed)
    dists = np.zeros((n_mc, i_max))
    for s, atom in enumerate(rng.choice(len(measure), size=n_mc,
                                        p=measure.weights)):
        state = (int(measure.vertices[atom]), measure.points[atom])
        y = sys.base_point(state[0])
        for i in range(i_max):
            edge, state = chain_step(sys, state, rng)
            y = edge.map.apply(y)
            dists[s, i] = np.linalg.norm(state[1] - y)
    return dists.mean(axis=0), dists.std(axis=0, ddof=1) / math.sqrt(n_mc)


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


def tuple_walk(sys, n_max: int, measure) -> dict[int, tuple]:
    """{n: (words, M, phi0)} of every depth 1..n_max, M and phi0 as float
    arrays: a depth-first walk of the word tree whose rows hold each word
    as a tuple of edge ids, the prefix's tuple plus the edge, stepped by
    the library's chain step (cylinders._chain) from each start vertex,
    with phi0 = Phi / |S| divided per word."""
    from cmslab.cylinders import _chain

    step, root = _chain(sys, measure)
    n_support = len(sys.support_set)
    found = {n: ([], [], []) for n in range(1, n_max + 1)}
    stack = []
    for v in sorted(v.index for v in sys.vertices):
        stack.append(((), iter(sys.out_edges(v)), root(v)))
        while stack:
            word, edges, state = stack[-1]
            e = next(edges, None)
            if e is None:
                stack.pop()
                continue
            child = word + (e.id,)
            leaf = len(child) == n_max
            child_state = step(state, e, leaf)
            words, m_vals, phi_vals = found[len(child)]
            words.append(child)
            m_vals.append(child_state[0])
            phi_vals.append(child_state[1] / n_support)
            if not leaf:
                stack.append((child, iter(sys.out_edges(e.target)),
                              child_state))
    return {n: (tuple(words), np.array(m_vals), np.array(phi_vals))
            for n, (words, m_vals, phi_vals) in found.items()}


def tuple_kstar(rows: dict[int, tuple], window: int, depth: int) -> float:
    """K* from tuple_walk rows: log Z per depth-`depth` word, a word at a
    time as build_table once computed it, then each word of length
    depth + window scored by the largest log Z over its window + 1 slices
    w[m:m + depth], each looked up by its tuple, and the fsum of M times
    that score over the words with M > 0."""
    words, m_vals, phi_vals = rows[depth]
    logz_of = {}
    for w, m, phi in zip(words, m_vals.tolist(), phi_vals.tolist()):
        z = m / phi if phi > 0.0 else 0.0
        logz_of[w] = (math.log(z) if z > 0.0 else -math.inf) if phi > 0.0 else 0.0
    long_words, long_m, _ = rows[depth + window]
    return math.fsum(
        m * max(logz_of[w[s:s + depth]] for s in range(window + 1))
        for w, m in zip(long_words, long_m.tolist()) if m > 0.0)
