"""Divergence estimators and explicit bound evaluation.

kl_n is the depth-n relative entropy of the chain mass against the base
measure, summed over cylinder rows with the 0 log 0 = 0 convention.
kstar_estimate generalizes it by taking, per word, the largest density over a
window of backward shifts before the logarithm; the window-0 case reproduces
kl_n bit for bit.  evaluate_bounds turns a constant set into the two explicit
upper bound values and the multiplicative lower-bound factor used by the
cover cross-check.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from .cylinders import (
    CylinderRows,
    CylinderSet,
    CylinderTable,
    Measure,
    build_table,
    walked_to,
)
from .errors import AbsoluteContinuityViolation, NotUniformlyContractive
from .model import ConstantSet, MarkovSystem


@dataclass
class BoundReport:
    """Derived constants plus every evaluated bound and diagnostic series."""

    constants: ConstantSet
    n_support: int
    bound_i_value: float = math.nan
    bound_ii_value: float = math.nan
    corollary_factor: float = math.nan
    k_n_series: list[tuple[int, float, float]] = field(default_factory=list)
    kstar_estimates: list[tuple[int, int, float, float]] = field(default_factory=list)
    pass_flags: dict[str, bool] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "constants": asdict(self.constants),
            "n_support": self.n_support,
            "bound_i_value": self.bound_i_value,
            "bound_ii_value": self.bound_ii_value,
            "corollary_factor": self.corollary_factor,
            "k_n_series": [list(row) for row in self.k_n_series],
            "kstar_estimates": [list(row) for row in self.kstar_estimates],
            "pass_flags": dict(sorted(self.pass_flags.items())),
        }


def _entropy_terms(m_values, logz_values):
    # 0 log 0 contributes 0; rows with zero base measure were already
    # screened by the table build
    return [float(m) * float(lz) for m, lz in zip(m_values, logz_values)
            if m > 0.0]


def kl_n(table: CylinderTable) -> tuple[float, float]:
    """Depth-n divergence: sum of M log Z over rows, with standard error.

    The error propagates per-row M noise through d(M log M/phi)/dM
    = log Z + 1, treating rows as independent.
    """
    value = math.fsum(_entropy_terms(table.m_values, table.logz_values))
    var = 0.0
    for m, lz, se in zip(table.m_values, table.logz_values, table.stderrs):
        if m > 0.0:
            var += ((lz + 1.0) * se) ** 2
    return value, math.sqrt(var)


def evaluate_bounds(sys: MarkovSystem, constants: ConstantSet) -> BoundReport:
    """Fill the closed-form bound values from a constant set."""
    if constants.a >= 1.0:
        raise NotUniformlyContractive(
            "explicit bounds need max Lipschitz constant below 1")
    s = len(sys.support_set)
    log_s = math.log(s)
    inv_delta = 1.0 / constants.delta
    report = BoundReport(constants=constants, n_support=s)
    report.bound_i_value = log_s + inv_delta * (
        1.0 / (1.0 - math.sqrt(constants.a)) + constants.dini_sum_half)
    report.bound_ii_value = log_s + inv_delta * constants.dini_sum_full
    report.corollary_factor = math.exp(-inv_delta * constants.dini_sum_full) / s
    return report


def corollary_lower_bound(report: BoundReport, q: CylinderSet,
                          m_of_q: tuple[float, float]) -> tuple[float, float]:
    """Lower bound on the shifted-cover outer measure of q: M(q) times the
    corollary factor, with propagated standard error."""
    if not math.isfinite(report.corollary_factor):
        raise NotUniformlyContractive("corollary factor not available")
    value, stderr = m_of_q
    return value * report.corollary_factor, stderr * report.corollary_factor


def kstar_estimate(sys: MarkovSystem, window: int, depth: int,
                   measure: Measure, rows: dict[int, CylinderRows] | None = None
                   ) -> tuple[float, float]:
    """Shift-maximized divergence estimate over a finite window.

    Enumerates words of length depth+window; each word is weighted by its
    chain mass and scored by the log of the largest depth-`depth` density
    over the window+1 backward shifts.  window=0 reproduces kl_n exactly.
    `rows` is a walk_cylinders result under the same measure; without
    one reaching depth+window, the estimate walks for itself.
    """
    if window < 0:
        raise ValueError("window must be >= 0")
    rows = walked_to(sys, depth + window, measure, rows)
    z_of = build_table(sys, depth, measure, rows=rows).z_by_word()

    long_rows = rows[depth + window]
    terms = []
    var = 0.0
    for w, m, se in zip(long_rows.words, long_rows.m_values.tolist(),
                        long_rows.stderrs.tolist()):
        best = max(z_of[w[m_off:m_off + depth]] for m_off in range(window + 1))
        if m > 0.0:
            if best <= 0.0:
                raise AbsoluteContinuityViolation(
                    f"word {'.'.join(w)} has chain mass but every shifted "
                    f"density is zero")
            log_best = math.log(best)
            terms.append(m * log_best)
            var += ((log_best + 1.0) * se) ** 2
    return math.fsum(terms), math.sqrt(var)

