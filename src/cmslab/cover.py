"""Upper bounds on the shifted-cover outer measure by branch and bound.

A cover piece is a pair (shift m <= 0, word u); it stands for the set of
sequences that spell u on coordinates 1+m .. len(u)+m, and it is charged the
base measure of the unshifted cylinder of u.  The outer measure of a query
set is the infimum of total charge over families of pairwise disjoint pieces
whose union contains the query; the search minimizes over pieces with shifts
down to -max_shift and words up to max_depth long, which realizes every
finite cylinder cover in that range.

Disjointness and coverage are verified symbolically on the query's window
words, the admissible words on the common coordinate window that spell a
query word: every piece must meet the query, each is expanded to the window
words that spell it, and the sets are compared exactly.  Inadmissible
sequences need no paying cover (they lie in zero-measure cylinders), and
pieces that meet the query overlap only if they overlap on it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from . import cylinders
from .coding import parse_word
from .cylinders import (CylinderSet, Word, cylinder_set, enumerate_words,
                        phi0_cyl)
from .errors import CertificateInvalid, DepthOverflow
from .model import (MarkovSystem, json_int, json_number, system_to_config,
                    validate_system)

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
    word on 1..q.depth, in enumerate_words order, each with the pieces
    (shift, word) with len(word) <= max_len that it spells; and per piece,
    the bitmask of the window words that spell it (bit i: the i-th word)."""
    # Two pieces that meet the query intersect if and only if they intersect
    # on the query: each starts at or before coordinate 1, so past the end of
    # the one that ends later, a sequence in both can continue as a query
    # sequence of that piece.
    past = enumerate_words(sys, max_shift + 1)  # overlap w by its first edge
    future = enumerate_words(sys, hi - q.depth + 1)  # and by its last edge
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


def phi_upper(sys: MarkovSystem, q: CylinderSet, max_shift: int,
              max_depth: int, budget: int = DEFAULT_BUDGET
              ) -> tuple[float, CoverCandidate]:
    """Minimal-cost disjoint cover of q found within the search budget.

    The trivial cover (the query words themselves, unshifted) seeds the
    incumbent, so the result never exceeds the plain cylinder charge.  The
    search is exhaustive over the (max_shift, max_depth) piece family unless
    the budget runs out, in which case the incumbent is returned with
    exhaustive=False.
    """
    if max_shift < 0 or max_depth < 1:
        raise ValueError("max_shift must be >= 0 and max_depth >= 1")
    lo, hi = 1 - max_shift, max(q.depth, max_depth)
    spelled, index = _window(sys, q, max_shift, hi, max_depth)
    target = (1 << len(spelled)) - 1
    # a piece's charge does not depend on its shift: one per word, on first
    # use, so a word no piece of the pool uses is never charged
    charge_of = functools.cache(lambda word: phi0_cyl(sys, word))

    # candidate pool: the pieces that meet the query; an optimal cover never
    # needs a piece that misses it
    pool = sorted(((charge_of(word), shift, word, mask)
                   for (shift, word), mask in index.items()),
                  key=lambda p: (p[0], -p[1], p[2]))
    rank = {(shift, word): i for i, (_, shift, word, _) in enumerate(pool)}
    by_bit = [sorted(rank[piece] for piece in pieces)
              for pieces in spelled.values()]

    best_pieces = tuple((0, w) for w in q.words)  # the trivial cover
    best_cost = math.fsum(charge_of(w) for w in q.words)
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

    cost = math.fsum(charge_of(w) for _, w in best_pieces)
    candidate = CoverCandidate(pieces=best_pieces, cost=cost,
                               exhaustive=not exhausted,
                               window=(lo, hi), nodes_explored=nodes)
    verify_cover(sys, q, candidate)
    return cost, candidate


def verify_cover(sys: MarkovSystem, q: CylinderSet,
                 candidate: CoverCandidate) -> None:
    """Re-check that every piece meets the query, disjointness, coverage and
    cost; raises CertificateInvalid naming the first violated condition."""
    if not candidate.pieces:
        raise CertificateInvalid("cover has no pieces")
    for shift, word in candidate.pieces:
        if shift > 0:
            raise CertificateInvalid(f"piece shift {shift} is positive")
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

    cost = math.fsum(phi0_cyl(sys, w) for _, w in candidate.pieces)
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
    upper bound beyond three standard errors.  A failure is a red flag."""
    value, stderr = lower
    return ConsistencyResult(
        passed=value <= upper + 3.0 * stderr,
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
        candidate = CoverCandidate(
            pieces=pieces, cost=json_number(data["cost"]),
            exhaustive=bool(data.get("exhaustive", False)),
            window=tuple(data.get("window", (0, q.depth))),
            nodes_explored=json_int(data.get("nodes_explored", 0), 0))
    except Exception as exc:
        raise CertificateInvalid(f"malformed certificate: {exc}") from exc
    verify_cover(sys, q, candidate)
