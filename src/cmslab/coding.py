"""Coding map evaluation by backward iteration.

A past word (e_m, ..., e_0) is an admissible edge string read left to right
from the deepest past to the present.  Truncating at depth j gives the point
X_j = w_{e_0} o ... o w_{e_j} (base point of source(e_j)); the truncations
form a Cauchy sequence whose limit is the coding point, and the geometric
decay of successive differences certifies the truncation error.

Points are evaluated by fresh sequential map application per truncation
depth, which keeps base-point orbits exact in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InadmissibleWord, NotUniformlyContractive
from .model import TAIL_TOL, MarkovSystem, modulus_geometric_sum

WORD_SEPARATOR = "."


def parse_word(text: str) -> tuple[str, ...]:
    """Split a dotted edge string like 'e1.e2.e1' into a word."""
    parts = tuple(p for p in text.split(WORD_SEPARATOR) if p)
    if not parts:
        raise InadmissibleWord("empty word")
    return parts


def format_word(word: Sequence[str]) -> str:
    return WORD_SEPARATOR.join(word)


@dataclass(frozen=True)
class CodingResult:
    """Deepest truncation point with its certified error bound."""

    point: np.ndarray
    error_bound: float
    depth: int


def backward_orbit(sys: MarkovSystem, past: Sequence[str]) -> list[np.ndarray]:
    """Truncation points [X_m, ..., X_0] of an admissible past word.

    X_j applies the maps of edges j..0 to the base point of source(e_j), so
    the first entry uses the whole word and the last entry a single edge.
    """
    edges = sys.require_admissible(past)
    orbit = []
    for start in range(len(edges)):
        x = sys.base_point(edges[start].source)
        for e in edges[start:]:
            x = e.map.apply(x)
        orbit.append(x)
    return orbit


def coding_point(sys: MarkovSystem, past: Sequence[str]) -> CodingResult:
    """Deepest truncation with error bound a^depth * d / (1 - a).

    Successive truncations are checked en route to satisfy the geometric
    Cauchy inequality |X_j - X_{j+1}| <= a^{-j} d (j = -depth+1 .. 0, with
    X_1 the target base point of the last edge).
    """
    if not sys.is_uniformly_contractive:
        raise NotUniformlyContractive(
            "coding points need every edge map contractive")
    edges = sys.require_admissible(past)
    a = sys.contraction_rate
    d = sys.max_displacement
    orbit = backward_orbit(sys, past)
    depth = len(orbit)

    # orbit[idx] is X_j with j = idx - depth + 1; the difference
    # X_j -> X_{j+1} must shrink by a per unit depth
    slack = 1e-12 * max(1.0, d)
    tail = [sys.base_point(edges[-1].target)] + orbit[::-1]
    for step_back, (nxt, cur) in enumerate(zip(tail, tail[1:])):
        gap = float(np.linalg.norm(cur - nxt))
        if gap > a ** step_back * d + slack:
            raise AssertionError(
                f"Cauchy inequality violated at depth {step_back}: "
                f"{gap:.3e} > {a ** step_back * d:.3e}")

    error_bound = a ** depth * d / (1.0 - a)
    return CodingResult(point=orbit[0], error_bound=error_bound, depth=depth)


def f_sum(sys: MarkovSystem, word: Sequence[str], point: np.ndarray,
          point_error: float = 0.0) -> tuple[float, float]:
    """Accumulated probability oscillation along a forward word.

    Runs the maps of the forward word from `point` and from the base point of
    the word's start vertex in parallel, summing |p_e at one orbit - p_e at
    the other| along the way.  Returns (partial sum, tail bound), the tail
    being the modulus series for all deeper terms.

    `point` must lie in the start vertex's region (inflated by point_error,
    for truncated coding points).
    """
    edges = sys.require_admissible(word)
    start = sys.vertex(edges[0].source)
    pt = np.asarray(point, dtype=float)
    if not start.contains(pt, tol=point_error + 1e-9):
        raise InadmissibleWord(
            f"point {pt.tolist()} is not in the region of vertex {start.index}")

    y = pt
    z = sys.base_point(start.index)
    partial = 0.0
    for e in edges:
        partial += abs(e.prob.value(y) - e.prob.value(z))
        y = e.map.apply(y)
        z = e.map.apply(z)

    if not sys.is_uniformly_contractive:
        raise NotUniformlyContractive("tail bound needs uniform contraction")
    a = sys.contraction_rate
    reach = sys.max_displacement / (1.0 - a)
    tail = modulus_geometric_sum(sys, a, a ** len(edges) * reach, TAIL_TOL)
    return partial, tail
