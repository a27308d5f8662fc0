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


def _divergence(masses, log_densities) -> float:
    """Sum of M log d over the rows with M > 0 (0 log 0 = 0)."""
    return math.fsum(m * log_d for m, log_d in zip(masses, log_densities)
                     if m > 0.0)


def kl_n(table: CylinderTable) -> float:
    """Depth-n divergence: sum of M log Z over rows."""
    return _divergence(table.m_values.tolist(), table.logz_values.tolist())


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
    reproduces kl_n exactly.  The table and the words are read from
    walk.to(depth + window); `sys` must be the walk's system (ValueError).
    """
    if window < 0:
        raise ValueError("window must be >= 0")
    if walk.system is not sys:
        raise ValueError("kstar_estimate: the walk is of another system")
    walk = walk.to(depth + window)
    table = build_table(walk, depth)
    logz_of = dict(zip(table.words, table.logz_values.tolist()))
    long_rows = walk.rows[depth + window]
    log_best = [max(logz_of[w[m_off:m_off + depth]] for m_off in range(window + 1))
                for w in long_rows.words]
    return _divergence(long_rows.m_values.tolist(), log_best)
