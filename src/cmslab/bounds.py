"""Divergence estimators and explicit bound evaluation.

kl_n is the depth-n relative entropy of the chain mass against the base
measure, summed over cylinder rows with the 0 log 0 = 0 convention.
kstar_estimate generalizes it by scoring each word with the largest log
density over its backward shifts; both add up one sum over the log densities
build_table sets, so window 0 reproduces kl_n bit for bit.
evaluate_bounds turns a constant set into the two explicit upper bound values
and the multiplicative lower-bound factor used by the cover cross-check.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .cylinders import CylinderTable, Walk, build_table
from .errors import NotUniformlyContractive
from .model import ConstantSet, MarkovSystem


@dataclass
class BoundReport:
    """Derived constants plus every evaluated bound and diagnostic series."""

    constants: ConstantSet
    n_support: int
    bound_i_value: float
    bound_ii_value: float
    corollary_factor: float
    # rows (n, K_n, 0.0) and (window, depth, K*, 0.0): the last slot held a
    # standard error and is kept for readers of bounds.json
    k_n_series: list[tuple[int, float, float]] = field(default_factory=list)
    kstar_estimates: list[tuple[int, int, float, float]] = field(default_factory=list)
    pass_flags: dict[str, bool] = field(default_factory=dict)
    # levels, atoms and c_hat truncation gap of the pushforward measure
    measure: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _divergence(masses: np.ndarray, log_densities: np.ndarray) -> float:
    """fsum of M log d over the rows with M > 0 (0 log 0 = 0); each product
    is one IEEE multiplication, in numpy as in Python."""
    held = masses > 0.0
    return math.fsum((masses[held] * log_densities[held]).tolist())


def kl_n(table: CylinderTable) -> float:
    """Depth-n divergence: sum of M log Z over rows."""
    return _divergence(table.m_values, table.logz_values)


def evaluate_bounds(sys: MarkovSystem, constants: ConstantSet) -> BoundReport:
    """Fill the closed-form bound values from a constant set."""
    if constants.a >= 1.0:
        raise NotUniformlyContractive(
            "explicit bounds need max Lipschitz constant below 1")
    s = len(sys.support_set)
    log_s = math.log(s)
    inv_delta = 1.0 / constants.delta
    return BoundReport(
        constants=constants, n_support=s,
        bound_i_value=log_s + inv_delta * (
            1.0 / (1.0 - math.sqrt(constants.a)) + constants.dini_sum_half),
        bound_ii_value=log_s + inv_delta * constants.dini_sum_full,
        corollary_factor=math.exp(-inv_delta * constants.dini_sum_full) / s)


def corollary_lower_bound(report: BoundReport, m_of_q: float) -> float:
    """Lower bound on the shifted-cover outer measure of a query set Q from
    M(Q): M(Q) times the corollary factor."""
    return m_of_q * report.corollary_factor


def kstar_estimate(sys: MarkovSystem, window: int, depth: int,
                   walk: Walk) -> float:
    """Shift-maximized divergence estimate over a finite window.

    Words of length depth+window are weighted by their chain mass and scored
    by the largest table log Z over their window+1 backward depth-`depth`
    shifts, so the estimate never falls as the window grows; window=0
    reproduces kl_n exactly.  Each shift's sub-word is found by index
    arithmetic on the walk's rows (Walk.tails, then parents).  The table
    and the words are read from walk.to(depth + window); `sys` must be the
    walk's system (ValueError).
    """
    if window < 0:
        raise ValueError("window must be >= 0")
    if walk.system is not sys:
        raise ValueError("kstar_estimate: the walk is of another system")
    length = depth + window
    walk = walk.to(length)
    logz = build_table(walk, depth).logz_values
    tails = walk.tails(length) if window else []
    # at each shift, `suffix` holds each long word's row of its suffix from
    # that shift on, at depth length - shift; the suffix's first `depth`
    # edges are its prefix length - shift - depth parents up
    suffix = np.arange(len(walk.rows[length]))
    for shift in range(window + 1):
        if shift:
            suffix = tails[length - shift][suffix]
        sub = suffix
        for k in range(length - shift, depth, -1):
            sub = walk.rows[k].parent[sub]
        log_best = logz[sub] if not shift else np.maximum(log_best, logz[sub])
    return _divergence(walk.rows[length].m_values, log_best)
