"""Upper bounds on the shifted-cover outer measure by branch and bound.

A cover piece is a pair (shift m <= 0, word u); it stands for the set of
sequences that spell u on coordinates 1+m .. len(u)+m, and it is charged the
base measure of the unshifted cylinder of u.  The outer measure of a query
set is the infimum of total charge over families of pairwise disjoint pieces
whose union contains the query; the search minimizes over pieces with shifts
down to -max_shift and words up to max_depth long, which realizes every
finite cylinder cover in that range.

Disjointness and coverage are verified symbolically: every piece is expanded
to its constraint set of admissible words on the common coordinate window
and the sets are compared exactly.  Sequences that are inadmissible somewhere
on the window need no paying cover: the leftover is a union of full-window
cylinders of zero base measure, disjoint from everything else, so restricting
the bookkeeping to admissible window words loses nothing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from .cylinders import CylinderSet, Word, cylinder_set, enumerate_words, phi0_cyl
from .errors import CertificateInvalid
from .model import MarkovSystem, system_to_config, validate_system

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


def _piece_mask(universe: Sequence[Word], lo: int, shift: int, word: Word) -> int:
    """Bitmask of universe words that spell `word` at coordinates 1+shift.. ."""
    offset = 1 + shift - lo
    mask = 0
    for bit, u in enumerate(universe):
        if u[offset:offset + len(word)] == word:
            mask |= 1 << bit
    return mask


def _query_mask(universe: Sequence[Word], lo: int, q: CylinderSet) -> int:
    mask = 0
    for w in q.words:
        mask |= _piece_mask(universe, lo, 0, w)
    return mask


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
    universe = enumerate_words(sys, hi - lo + 1)
    target = _query_mask(universe, lo, q)
    words = [w for length in range(1, max_depth + 1)
             for w in enumerate_words(sys, length)]
    # a piece's charge does not depend on its shift: one per word, on first
    # use, so a word no piece of the pool uses is never charged
    charge_of = functools.cache(lambda word: phi0_cyl(sys, word))

    # candidate pool: pieces that intersect the query; an optimal cover never
    # needs a piece that misses it
    pool = []
    for shift in range(0, -max_shift - 1, -1):
        for word in words:
            mask = _piece_mask(universe, lo, shift, word)
            if mask & target:
                pool.append((charge_of(word), shift, word, mask))
    pool.sort(key=lambda p: (p[0], -p[1], p[2]))

    by_bit: dict[int, list[int]] = {}
    for idx, (_, _, _, mask) in enumerate(pool):
        m = mask
        while m:
            bit = (m & -m).bit_length() - 1
            by_bit.setdefault(bit, []).append(idx)
            m &= m - 1

    best_pieces = tuple((0, w) for w in q.words)  # the trivial cover
    best_cost = math.fsum(charge_of(w) for w in q.words)
    nodes = 0
    exhausted = False

    def dfs(covered: int, used: int, cost: float, chosen: list[int]) -> None:
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
        for idx in by_bit.get(bit, ()):  # pool order: cheap pieces first
            nodes += 1
            if nodes > budget:
                exhausted = True
                return
            piece_cost, _, _, mask = pool[idx]
            if cost + piece_cost >= best_cost:
                break  # candidates for this word only get more expensive
            if mask & used:
                continue
            chosen.append(idx)
            dfs(covered | mask, used | mask, cost + piece_cost, chosen)
            chosen.pop()

    dfs(0, 0, 0.0, [])

    cost = math.fsum(charge_of(w) for _, w in best_pieces)
    candidate = CoverCandidate(pieces=best_pieces, cost=cost,
                               exhaustive=not exhausted,
                               window=(lo, hi), nodes_explored=nodes)
    verify_cover(sys, q, candidate)
    return cost, candidate


def verify_cover(sys: MarkovSystem, q: CylinderSet,
                 candidate: CoverCandidate) -> None:
    """Re-check disjointness, coverage, and cost; raises CertificateInvalid
    naming the first violated condition."""
    if not candidate.pieces:
        raise CertificateInvalid("cover has no pieces")
    max_shift = max(0, *(-shift for shift, _ in candidate.pieces))
    max_depth = max(len(w) + shift for shift, w in candidate.pieces)
    lo = 1 - max_shift
    hi = max(q.depth, max_depth, 1)
    universe = enumerate_words(sys, hi - lo + 1)

    masks = []
    for shift, word in candidate.pieces:
        if shift > 0:
            raise CertificateInvalid(f"piece shift {shift} is positive")
        sys.require_admissible(word)
        masks.append(_piece_mask(universe, lo, shift, word))
    union = 0
    for i, mask in enumerate(masks):
        if mask & union:
            shift, word = candidate.pieces[i]
            raise CertificateInvalid(
                f"disjointness: piece ({shift}, {'.'.join(word)}) overlaps an "
                f"earlier piece")
        union |= mask

    target = _query_mask(universe, lo, q)
    if target & ~union:
        missing = (target & ~union).bit_length() - 1
        raise CertificateInvalid(
            f"coverage: query word window {'.'.join(universe[missing])} "
            f"is not covered")

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
        q = cylinder_set(sys, [tuple(w.split(".")) for w in data["query"]["words"]])
        pieces = tuple((int(p["shift"]), tuple(p["word"].split(".")))
                       for p in data["pieces"])
        cost = float(data["cost"])
    except CertificateInvalid:
        raise
    except Exception as exc:
        raise CertificateInvalid(f"malformed certificate: {exc}") from exc
    candidate = CoverCandidate(pieces=pieces, cost=cost,
                               exhaustive=bool(data.get("exhaustive", False)),
                               window=tuple(data.get("window", (0, q.depth))),
                               nodes_explored=int(data.get("nodes_explored", 0)))
    verify_cover(sys, q, candidate)
