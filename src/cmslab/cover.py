"""Upper bounds on the shifted-cover outer measure by branch and bound.

A cover piece is a pair (shift m <= 0, word u); it stands for the set of
sequences that spell u on coordinates 1+m .. len(u)+m, and it is charged the
base measure of the unshifted cylinder of u, read from a walk_cylinders walk
of the base measure along the words charged.  The outer measure of a query
set is the infimum of total charge over families of pairwise disjoint pieces
whose union contains the query; the search minimizes over pieces with shifts
down to -max_shift and words up to max_depth long, which realizes every
finite cylinder cover in that range.

The search is a depth-first branch and bound over the window words: it
covers the lowest uncovered word next, trying the pieces that hold it from
the cheapest up, and keeps the cheapest complete cover as its incumbent.  It
cuts a node three ways.  (1) Incumbent: the node already costs at least the
incumbent.  (2) Dominance memo: the subtree below a node depends only on the
set of words it has covered, so a node that reaches a covered set at no less
than the cheapest cost seen there cannot lead to a cheaper cover; the
earlier visit searched that subtree under an incumbent at least as high.
(3) Per-word bound: each window word b is given r_b, the least charge per
word, charge / popcount(mask), over the pieces that hold b; a disjoint
completion pays at least the sum of r_b over the words still uncovered, so a
node whose cost plus that sum exceeds the incumbent by more than COST_TOL is
cut.  The search counts each piece it tries as a node and stops at the
budget, so the memo holds at most as many entries as there are nodes, and
nodes at most the budget.

Disjointness and coverage are verified symbolically on the query's window
words, the admissible words on the common coordinate window that spell a
query word: every piece must meet the query, each is expanded to the window
words that spell it, and the sets are compared exactly.  Inadmissible
sequences need no paying cover (they lie in zero-measure cylinders), and
pieces that meet the query overlap only if they overlap on it.  The window
words are joined from the words of one base walk; verify_cover builds its
own window and charges from its own walks, independent of the search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import cylinders
from .coding import parse_word
from .cylinders import CylinderSet, Word, cylinder_set, walk_cylinders
from .errors import CertificateInvalid, ConfigError, DepthOverflow
from .model import (MarkovSystem, json_int, json_list, json_number,
                    system_to_config, validate_system)

DEFAULT_BUDGET = 1_000_000
COST_TOL = 1e-12


@dataclass(frozen=True)
class CoverCandidate:
    """A verified disjoint cover with its exact total charge."""

    pieces: tuple[tuple[int, Word], ...]
    cost: float
    exhaustive: bool
    window: tuple[int, int]
    nodes_explored: int


def _window(sys: MarkovSystem, q: CylinderSet, max_shift: int, hi: int,
            max_len: int) -> tuple[dict[Word, list], dict[tuple[int, Word], int]]:
    """The admissible words on coordinates 1-max_shift..hi that spell a query
    word on 1..q.depth, in the base walk's order, each with the pieces
    (shift, word) with len(word) <= max_len that it spells; and per piece,
    the bitmask of the window words that spell it (bit i: the i-th word)."""
    # Two pieces that meet the query intersect if and only if they intersect
    # on the query: each starts at or before coordinate 1, so past the end of
    # the one that ends later, a sequence in both can continue as a query
    # sequence of that piece.
    base = walk_cylinders(sys, max(max_shift, hi - q.depth) + 1, None)
    past = base[max_shift + 1].words  # overlap w by its first edge
    future = base[hi - q.depth + 1].words  # and by its last edge
    joined = (u[:-1] + w + v[1:] for w in q.words
              for u in past if u[-1] == w[0] for v in future if v[0] == w[-1])
    cap = cylinders.WORD_CAP
    words = list(itertools.islice(joined, cap + 1))
    if len(words) > cap:
        raise DepthOverflow(f"the cover window exceeds the cap {cap}")
    words.sort(key=lambda x: (sys.edge(x[0]).source, x))

    spelled: dict[Word, list] = {}
    index: dict[tuple[int, Word], int] = {}
    for bit, x in enumerate(words):
        spelled[x] = [(shift, x[shift + max_shift:shift + max_shift + n])
                      for shift in range(0, -max_shift - 1, -1)
                      for n in range(1, min(max_len, hi - shift) + 1)]
        for piece in spelled[x]:
            index[piece] = index.get(piece, 0) | 1 << bit
    return spelled, index


def _charges(sys: MarkovSystem, words: set[Word]) -> dict[Word, float]:
    """The base measure phi0 of each word and of its prefixes, from one
    base walk along the words."""
    return {w: phi for rows in walk_cylinders(sys, 0, None, along=words).values()
            for w, phi in zip(rows.words, rows.phi0_values.tolist())}


def phi_upper(sys: MarkovSystem, q: CylinderSet, max_shift: int,
              max_depth: int, budget: int = DEFAULT_BUDGET
              ) -> tuple[float, CoverCandidate]:
    """Minimal-cost disjoint cover of q found within the search budget.

    The trivial cover (the query words themselves, unshifted) seeds the
    incumbent, so the result never exceeds the plain cylinder charge.  The
    branch and bound cuts on the incumbent, on a memo of the cheapest cost
    per covered set and on the per-word lower bound (module docstring).  It
    is exhaustive over the (max_shift, max_depth) piece family unless it
    tries `budget` pieces first; then the incumbent, still a verified cover,
    is returned with exhaustive=False.  The memo holds at most
    nodes_explored <= budget entries.
    """
    if max_shift < 0 or max_depth < 1:
        raise ValueError("max_shift must be >= 0 and max_depth >= 1")
    lo, hi = 1 - max_shift, max(q.depth, max_depth)
    spelled, index = _window(sys, q, max_shift, hi, max_depth)
    target = (1 << len(spelled)) - 1
    # a piece's charge does not depend on its shift: one per word, so a word
    # no piece of the pool uses is never charged
    charge_of = _charges(sys, {*(word for _, word in index), *q.words})

    # candidate pool: the pieces that meet the query; an optimal cover never
    # needs a piece that misses it
    pool = sorted(((charge_of[word], shift, word, mask)
                   for (shift, word), mask in index.items()),
                  key=lambda p: (p[0], -p[1], p[2]))
    rank = {(shift, word): i for i, (_, shift, word, _) in enumerate(pool)}
    by_bit = [sorted(rank[piece] for piece in pieces)
              for pieces in spelled.values()]

    # the per-word bound (module docstring): least[b] is r_b, share[i] the
    # sum of r_b over the words of pool piece i
    least = [min(pool[i][0] / pool[i][3].bit_count() for i in pieces)
             for pieces in by_bit]
    share = [0.0] * len(pool)
    for r_b, pieces in zip(least, by_bit):
        for i in pieces:
            share[i] += r_b

    best_pieces = tuple((0, w) for w in q.words)  # the trivial cover
    best_cost = math.fsum(charge_of[w] for w in q.words)
    seen: dict[int, float] = {}  # covered -> the cheapest cost it was reached at
    nodes = 0
    exhausted = False

    def dfs(covered: int, cost: float, rest: float, chosen: list[int]) -> None:
        nonlocal best_cost, best_pieces, nodes, exhausted
        remaining = target & ~covered
        if not remaining:
            if cost < best_cost:
                best_cost = cost
                best_pieces = tuple((pool[i][1], pool[i][2]) for i in chosen)
            return
        bit = (remaining & -remaining).bit_length() - 1
        for idx in by_bit[bit]:  # pool order: cheap pieces first
            if nodes == budget:
                exhausted = True
                return
            nodes += 1
            piece_cost, _, _, mask = pool[idx]
            new_cost = cost + piece_cost
            if new_cost >= best_cost:
                break  # candidates for this word only get more expensive
            if mask & covered:
                continue
            new_covered, new_rest = covered | mask, rest - share[idx]
            if (seen.get(new_covered, math.inf) <= new_cost
                    or new_cost + new_rest > best_cost + COST_TOL):
                continue
            seen[new_covered] = new_cost
            chosen.append(idx)
            dfs(new_covered, new_cost, new_rest, chosen)
            chosen.pop()

    dfs(0, 0.0, math.fsum(least), [])

    cost = math.fsum(charge_of[w] for _, w in best_pieces)
    candidate = CoverCandidate(pieces=best_pieces, cost=cost,
                               exhaustive=not exhausted,
                               window=(lo, hi), nodes_explored=nodes)
    verify_cover(sys, q, candidate)
    return cost, candidate


def verify_cover(sys: MarkovSystem, q: CylinderSet,
                 candidate: CoverCandidate) -> None:
    """Re-check that every piece lies in the search window and meets the
    query, disjointness, coverage and cost; raises CertificateInvalid."""
    if not candidate.pieces:
        raise CertificateInvalid("cover has no pieces")
    lo, hi = candidate.window
    for shift, word in candidate.pieces:
        if shift > 0:
            raise CertificateInvalid(f"piece shift {shift} is positive")
        if 1 + shift < lo or len(word) + shift > hi:
            raise CertificateInvalid(f"piece ({shift}, {'.'.join(word)}) lies "
                                     f"outside the window [{lo}, {hi}]")
        sys.require_admissible(word)
    spelled, index = _window(
        sys, q, max(-shift for shift, _ in candidate.pieces),
        max(q.depth, *(len(w) + shift for shift, w in candidate.pieces)),
        max(len(w) for _, w in candidate.pieces))

    union = 0
    for shift, word in candidate.pieces:
        mask = index.get((shift, word), 0)
        name = f"piece ({shift}, {'.'.join(word)})"
        if not mask:
            raise CertificateInvalid(f"{name} misses the query")
        if mask & union:
            raise CertificateInvalid(f"disjointness: {name} overlaps an "
                                     f"earlier piece")
        union |= mask

    missing = ~union & ((1 << len(spelled)) - 1)
    if missing:
        raise CertificateInvalid(
            f"coverage: query word window "
            f"{'.'.join(list(spelled)[missing.bit_length() - 1])} is not covered")

    charge_of = _charges(sys, {w for _, w in candidate.pieces})
    cost = math.fsum(charge_of[w] for _, w in candidate.pieces)
    if abs(cost - candidate.cost) > COST_TOL:
        raise CertificateInvalid(
            f"cost mismatch: recomputed {cost!r}, claimed {candidate.cost!r}")


@dataclass(frozen=True)
class ConsistencyResult:
    passed: bool
    lower: float
    lower_stderr: float
    upper: float
    margin: float


def consistency_check(lower: tuple[float, float], upper: float) -> ConsistencyResult:
    """Sandwich check: the corollary lower bound must not exceed the cover
    upper bound beyond three standard errors and COST_TOL.  The two sides
    can be equal (a corollary factor of 1 and M(Q) = phi0(Q)), and rows
    without standard error then differ by rounding alone.  A failure is a
    red flag."""
    value, stderr = lower
    return ConsistencyResult(
        passed=value <= upper + 3.0 * stderr + COST_TOL,
        lower=value, lower_stderr=stderr, upper=upper,
        margin=upper - value)


# ---------------------------------------------------------------------------
# certificates

def certificate_dict(sys: MarkovSystem, q: CylinderSet,
                     candidate: CoverCandidate) -> dict:
    """Self-contained certificate: embeds the system config so it can be
    re-verified without the original search context."""
    return {
        "system": system_to_config(sys),
        "query": {"depth": q.depth, "words": [".".join(w) for w in q.words]},
        "pieces": [{"shift": shift, "word": ".".join(word)}
                   for shift, word in candidate.pieces],
        "cost": candidate.cost,
        "exhaustive": candidate.exhaustive,
        "window": list(candidate.window),
        "nodes_explored": candidate.nodes_explored,
    }


def verify_certificate_data(data: dict) -> None:
    """Validate a certificate dict end to end; raises CertificateInvalid."""
    try:
        sys = validate_system(data["system"])
        q = cylinder_set(sys, [parse_word(w) for w in data["query"]["words"]])
        pieces = tuple((json_int(p["shift"]), parse_word(p["word"]))
                       for p in data["pieces"])
        exhaustive = data.get("exhaustive", False)
        if not isinstance(exhaustive, bool):
            raise ConfigError(f"exhaustive: expected a boolean, got {exhaustive!r}")
        lo, hi = json_list(data["window"], json_int)
        candidate = CoverCandidate(
            pieces=pieces, cost=json_number(data["cost"]),
            exhaustive=exhaustive, window=(lo, hi),
            nodes_explored=json_int(data.get("nodes_explored", 0), 0))
    except Exception as exc:
        raise CertificateInvalid(f"malformed certificate: {exc}") from exc
    verify_cover(sys, q, candidate)
