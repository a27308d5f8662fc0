"""Upper bounds on the shifted-cover outer measure by branch and bound.

A cover piece is a pair (shift m <= 0, word u); it stands for the set of
sequences that spell u on coordinates 1+m .. len(u)+m, and it is charged the
base measure of the unshifted cylinder of u.  The outer measure of a query
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
nodes at most the budget.  It runs on an explicit stack, one frame per
chosen piece, so a cover of any number of pieces fits.

Disjointness and coverage are verified symbolically on the query's window
words, the admissible words on the common coordinate window that spell a
query word: every piece must meet the query, each is expanded to the window
words that spell it, and the sets are compared exactly.  Inadmissible
sequences need no paying cover (they lie in zero-measure cylinders), and
pieces that meet the query overlap only if they overlap on it.  So a query
whose window holds no word, every sequence of it inadmissible, is covered
by no piece at cost 0.  phi0 takes the same bits under every measure,
since every chain state multiplies the same p_e at the same orbit point,
so phi_upper reads its window words from the cylinders.Walk it is given,
whatever its measure, and each charge as phi0 of walk.along's {word: (M,
phi0)}, and checks its cover on its own masks; verify_cover, the check of
certificate files, reads a base walk of its own the same way.

The masks and the memo keys are as wide as the window.  check_window_cap
bounds what a search may hold from the window's word count alone
(window_words), so a plan's validation refuses a search past
WINDOW_BITS_CAP before any walk.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import cylinders
from .coding import parse_word
from .cylinders import CylinderSet, Walk, Word, cylinder_set
from .errors import CertificateInvalid, ConfigError, DepthOverflow
from .model import (MarkovSystem, json_int, json_list, json_number,
                    system_to_config, validate_system)

DEFAULT_BUDGET = 1_000_000
COST_TOL = 1e-12
WINDOW_BITS_CAP = 2 ** 33  # window mask bits a validated cover search holds


@dataclass(frozen=True)
class CoverCandidate:
    """A verified disjoint cover with its exact total charge."""

    pieces: tuple[tuple[int, Word], ...]
    cost: float
    exhaustive: bool
    window: tuple[int, int]
    nodes_explored: int


def window_depth(depth: int, max_shift: int, hi: int) -> int:
    """The depth to which the cover window on coordinates 1-max_shift..hi of
    a depth-`depth` query reads every word: its past words, max_shift + 1
    long, and its future words, hi - depth + 1 long, each overlap a query
    word by one edge."""
    return max(max_shift, hi - depth) + 1


def window_words(sys: MarkovSystem, q: CylinderSet | int, max_shift: int,
                 max_depth: int) -> int:
    """The number of words in the cover window of q (for an int, the whole
    space at that depth) that _window builds, from cylinders.tree_power
    alone: per query word w, the words of max_shift edges that end where w
    starts times those of hi - depth edges that start where w ends.  Exact
    up to the walk cap, and past it otherwise."""
    depth = q if isinstance(q, int) else q.depth
    v = len(sys.vertices)
    ending = cylinders.tree_power(sys, max_shift)[:v, :v].sum(axis=0)
    starting = cylinders.tree_power(
        sys, max(depth, max_depth) - depth)[:v, :v].sum(axis=1)
    if isinstance(q, int):
        return int(ending @ cylinders.tree_power(sys, depth)[:v, :v] @ starting)
    return int(sum(ending[sys.edge(w[0]).source - 1]
                   * starting[sys.edge(w[-1]).target - 1] for w in q.words))


def check_window_cap(sys: MarkovSystem, q: CylinderSet | int, max_shift: int,
                     max_depth: int, budget: int, where: str = "") -> None:
    """DepthOverflow, led by `where`, when a cover search of q may hold more
    than WINDOW_BITS_CAP bits of window masks: one mask per piece, at most
    (max_shift + 1) max_depth pieces per window word, and one memo key per
    node, at most min(budget, 2^words) distinct ones, each as wide as the
    window.  A count past the walk cap is inexact but past it, so such a
    window is refused too."""
    words = window_words(sys, q, max_shift, max_depth)
    memo = min(budget, 2 ** min(words, budget.bit_length()))
    bits = (words * (max_shift + 1) * max_depth + memo) * words
    if bits > WINDOW_BITS_CAP:
        raise DepthOverflow(
            f"{where}the cover window's {words} words need up to {bits} "
            f"mask bits, past the window cap {WINDOW_BITS_CAP}")


def _window(walk: Walk, q: CylinderSet, max_shift: int, hi: int,
            max_len: int
            ) -> tuple[dict[Word, list], dict[tuple[int, Word], int]]:
    """The admissible words on coordinates 1-max_shift..hi that spell a query
    word on 1..q.depth, in the walk's order, each with the pieces
    (shift, word) with len(word) <= max_len that it spells; and per piece,
    the bitmask of the window words that spell it (bit i: the i-th word).
    The words are read from walk.to(window_depth(...)), so from the walk
    itself when it holds every word of that depth."""
    # Two pieces that meet the query intersect if and only if they intersect
    # on the query: each starts at or before coordinate 1, so past the end of
    # the one that ends later, a sequence in both can continue as a query
    # sequence of that piece.
    base = walk.to(window_depth(q.depth, max_shift, hi)).rows
    past = base[max_shift + 1].words  # overlap w by its first edge
    future = base[hi - q.depth + 1].words  # and by its last edge
    joined = (u[:-1] + w + v[1:] for w in q.words
              for u in past if u[-1] == w[0] for v in future if v[0] == w[-1])
    cap = cylinders.WORD_CAP
    words = list(itertools.islice(joined, cap + 1))
    if len(words) > cap:
        raise DepthOverflow(f"the cover window exceeds the cap {cap}")
    edge = walk.system.edge
    words.sort(key=lambda x: (edge(x[0]).source, x))

    spelled: dict[Word, list] = {}
    index: dict[tuple[int, Word], int] = {}
    for bit, x in enumerate(words):
        spelled[x] = [(shift, x[shift + max_shift:shift + max_shift + n])
                      for shift in range(0, -max_shift - 1, -1)
                      for n in range(1, min(max_len, hi - shift) + 1)]
        for piece in spelled[x]:
            index[piece] = index.get(piece, 0) | 1 << bit
    return spelled, index


def _check_masks(pieces, masks: list[int], spelled: dict[Word, list]) -> None:
    """Raise CertificateInvalid unless each piece's mask of window words
    (bit i: the i-th word of `spelled`) is nonzero, no two masks share a bit
    and together they hold every window word; only an empty window takes
    the empty cover."""
    if not pieces and spelled:
        raise CertificateInvalid("cover has no pieces")
    union = 0
    for (shift, word), mask in zip(pieces, masks):
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


def phi_upper(walk: Walk, q: CylinderSet, max_shift: int, max_depth: int,
              budget: int = DEFAULT_BUDGET) -> tuple[float, CoverCandidate]:
    """Minimal-cost disjoint cover of q found within the search budget.

    The trivial cover (the query words themselves, unshifted) seeds the
    incumbent, so the result never exceeds the plain cylinder charge.  The
    branch and bound cuts on the incumbent, on a memo of the cheapest cost
    per covered set and on the per-word lower bound (module docstring).  It
    is exhaustive over the (max_shift, max_depth) piece family unless it
    tries `budget` pieces first; then the incumbent, still a verified cover,
    is returned with exhaustive=False.  The memo holds at most
    nodes_explored <= budget entries.

    The window words and charges are read from `walk`, under any measure,
    or past its depth walked and folded under it (Walk.to, Walk.along).
    A cover the search found is checked on its pieces' masks of window
    words (_check_masks); the trivial cover covers q by construction.
    """
    if max_shift < 0 or max_depth < 1:
        raise ValueError("max_shift must be >= 0 and max_depth >= 1")
    lo, hi = 1 - max_shift, max(q.depth, max_depth)
    spelled, index = _window(walk, q, max_shift, hi, max_depth)
    target = (1 << len(spelled)) - 1
    # a piece's charge does not depend on its shift: one per word, so a word
    # no piece of the pool uses is never charged
    charge_of = {w: phi for w, (_, phi) in walk.along(
        {*(word for _, word in index), *q.words}).items()}

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

    best = None  # pool indexes of the incumbent; None: the trivial cover
    best_cost = math.fsum(charge_of[w] for w in q.words)
    seen: dict[int, float] = {}  # covered -> the cheapest cost it was reached at
    nodes = 0
    exhausted = False
    # The node being searched is (covered, cost, rest, the pool pieces not
    # yet tried for its lowest uncovered word); a descent pushes it with the
    # piece chosen, and a spent node pops its parent back
    stack: list[tuple] = []
    covered, cost, rest = 0, 0.0, math.fsum(least)
    pieces = iter(by_bit[0] if target else ())
    if not target:  # an empty window: no sequence to pay for
        best, best_cost = (), 0.0
    while not exhausted:
        for idx in pieces:  # pool order: cheap pieces first
            if nodes == budget:
                exhausted = True
                break
            nodes += 1
            piece_cost, _, _, mask = pool[idx]
            new_cost = cost + piece_cost
            if new_cost >= best_cost:
                pieces = ()  # candidates for this word only get more expensive
                break
            if mask & covered:
                continue
            new_covered, new_rest = covered | mask, rest - share[idx]
            if (seen.get(new_covered, math.inf) <= new_cost
                    or new_cost + new_rest > best_cost + COST_TOL):
                continue
            seen[new_covered] = new_cost
            remaining = target & ~new_covered
            if not remaining:  # a complete cover, cheaper than the incumbent
                best_cost = new_cost
                best = (*(node[4] for node in stack), idx)
                continue
            stack.append((covered, cost, rest, pieces, idx))
            covered, cost, rest = new_covered, new_cost, new_rest
            pieces = iter(by_bit[(remaining & -remaining).bit_length() - 1])
            break
        else:  # the node is spent
            if not stack:
                break
            covered, cost, rest, pieces, _ = stack.pop()

    if best is None:
        best_pieces = tuple((0, w) for w in q.words)
    else:
        best_pieces = tuple(pool[i][1:3] for i in best)
        _check_masks(best_pieces, [pool[i][3] for i in best], spelled)
    cost = math.fsum(charge_of[w] for _, w in best_pieces)
    return cost, CoverCandidate(pieces=best_pieces, cost=cost,
                                exhaustive=not exhausted, window=(lo, hi),
                                nodes_explored=nodes)


def verify_cover(sys: MarkovSystem, q: CylinderSet,
                 candidate: CoverCandidate) -> None:
    """Re-check, from a base walk of its own to the window's depth, that
    every piece lies in the search window and meets the query,
    disjointness, coverage and cost; raises CertificateInvalid.  The empty
    cover passes only where the window holds no word."""
    lo, hi = candidate.window
    pieces = candidate.pieces
    for shift, word in pieces:
        if shift > 0:
            raise CertificateInvalid(f"piece shift {shift} is positive")
        if 1 + shift < lo or len(word) + shift > hi:
            raise CertificateInvalid(f"piece ({shift}, {'.'.join(word)}) lies "
                                     f"outside the window [{lo}, {hi}]")
        sys.require_admissible(word)
    max_shift = max((-shift for shift, _ in pieces), default=max(0, 1 - lo))
    last = max([q.depth, *(len(w) + shift for shift, w in pieces)])
    try:  # the walk checks its depth against the caps before it walks
        walk = cylinders.walk_cylinders(
            sys, window_depth(q.depth, max_shift, last), None)
        spelled, index = _window(walk, q, max_shift, last,
                                 max((len(w) for _, w in pieces), default=1))
    except DepthOverflow as exc:
        raise CertificateInvalid(f"certificate window: {exc}") from None
    _check_masks(pieces, [index.get(piece, 0) for piece in pieces], spelled)

    charge_of = walk.along({w for _, w in pieces})
    cost = math.fsum(charge_of[w][1] for _, w in pieces)
    if abs(cost - candidate.cost) > COST_TOL:
        raise CertificateInvalid(
            f"cost mismatch: recomputed {cost!r}, claimed {candidate.cost!r}")


@dataclass(frozen=True)
class ConsistencyResult:
    passed: bool
    lower: float
    upper: float
    margin: float


def consistency_check(lower: float, upper: float) -> ConsistencyResult:
    """Sandwich check: the corollary lower bound must not exceed the cover
    upper bound beyond COST_TOL.  The two sides can be equal (a corollary
    factor of 1 and M(Q) = phi0(Q)), and then differ by rounding alone.  A
    failure is a red flag."""
    return ConsistencyResult(passed=lower <= upper + COST_TOL, lower=lower,
                             upper=upper, margin=upper - lower)


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
