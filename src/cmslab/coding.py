"""Coding map evaluation by backward iteration.

A past word (e_m, ..., e_0) is an admissible edge string read left to right
from the deepest past to the present.  Truncating at depth j gives the point
X_j = w_{e_0} o ... o w_{e_j} (base point of source(e_j)); the truncations
form a Cauchy sequence whose limit is the coding point, and the geometric
decay of successive differences certifies the truncation error.

The truncations telescope from the present backwards: with X_{-1} the base
point of target(e_0), X_j = X_{j-1} + L_j delta_{e_j}, where L_0 = I,
L_{j+1} = L_j A_{e_j} and delta_e = w_e(base(source e)) - base(target e).
delta_e is read from the system, which derives it once per edge, so that
is one matrix-vector and one k x k product per edge of the word.  The sum
agrees with a fresh fold of each truncation up to a few ulps, and is exact
when every delta_e is exactly 0, as when the maps carry base points onto
base points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InadmissibleWord, NotUniformlyContractive
from .model import MarkovSystem

WORD_SEPARATOR = "."


def parse_word(text: str) -> tuple[str, ...]:
    """Split a dotted edge string like 'e1.e2.e1' into a word; an empty edge
    id (as in '', 'e1..e2' or 'e1.') is refused."""
    parts = tuple(text.split(WORD_SEPARATOR))
    if "" in parts:
        raise InadmissibleWord(f"empty edge id in word {text!r}")
    return parts


@dataclass(frozen=True)
class CodingResult:
    """Deepest truncation point with its certified error bound, and the
    backward orbit it was read from."""

    point: np.ndarray
    error_bound: float
    depth: int
    orbit: tuple[np.ndarray, ...] = field(repr=False)


def backward_orbit(sys: MarkovSystem, past: Sequence[str]) -> list[np.ndarray]:
    """Truncation points [X_m, ..., X_0] of an admissible past word.

    X_j applies the maps of edges j..0 to the base point of source(e_j), so
    the first entry uses the whole word and the last entry a single edge.
    Each delta_e is the system's own, sys.deltas.
    """
    edges = sys.require_admissible(past)
    delta = sys.deltas
    x = sys.base_point(edges[-1].target)
    lin = np.eye(len(x))
    orbit = []
    for e in reversed(edges):
        x = x + lin @ delta[e.id]
        lin = lin @ e.map.linear
        orbit.append(x)
    return orbit[::-1]


def coding_point(sys: MarkovSystem, past: Sequence[str]) -> CodingResult:
    """Deepest truncation with error bound a^depth * d / (1 - a).

    Successive truncations are checked, in one array pass, to satisfy the
    geometric Cauchy inequality |X_j - X_{j+1}| <= a^{-j} d
    (j = -depth+1 .. 0, with X_1 the target base point of the last edge).
    """
    a = sys.contraction_rate
    if a >= 1.0:
        raise NotUniformlyContractive(
            "coding points need every edge map contractive")
    d = sys.max_displacement
    orbit = backward_orbit(sys, past)  # refuses an inadmissible past
    depth = len(orbit)

    # orbit[idx] is X_j with j = idx - depth + 1; the difference
    # X_j -> X_{j+1} must shrink by a per unit depth, up to rounding, which
    # grows with the magnitude of the points
    tail = np.array([sys.base_point(sys.edge(past[-1]).target), *orbit[::-1]])
    slack = 1e-12 * max(1.0, d, float(np.max(np.abs(tail))))
    gaps = np.linalg.norm(np.diff(tail, axis=0), axis=1)
    bounds = a ** np.arange(depth) * d
    failed = np.flatnonzero(gaps > bounds + slack)
    if failed.size:
        step_back = int(failed[0])
        raise AssertionError(
            f"Cauchy inequality violated at depth {step_back}: "
            f"{gaps[step_back]:.3e} > {bounds[step_back]:.3e}")

    error_bound = a ** depth * d / (1.0 - a)
    return CodingResult(point=orbit[0], error_bound=error_bound, depth=depth,
                        orbit=tuple(orbit))
