"""End-to-end checks on a two-dimensional system with a rotating map.

The three reference systems are one-dimensional; this one exercises matrix
linear parts, gradient probability functions, and box geometry in the plane.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import cmslab as cl

from test_coding import random_past


def planar_config() -> dict:
    rot = [0.35, 0.2, -0.2, 0.35]  # scaled rotation, norm ~0.403
    squash = [0.5, 0.0, 0.0, 0.25]
    return {
        "dimension": 2,
        "vertices": [
            {"index": 1, "lower": [0.0, 0.0], "upper": [1.0, 1.0],
             "base_point": [0.5, 0.5]},
        ],
        "edges": [
            {"id": "spin", "source": 1, "target": 1, "linear": rot,
             "offset": [0.2, 0.3],
             "prob": {"family": "affine", "alpha": 0.4, "beta": [0.1, 0.05]}},
            {"id": "flat", "source": 1, "target": 1, "linear": squash,
             "offset": [0.25, 0.5],
             "prob": {"family": "affine", "alpha": 0.6, "beta": [-0.1, -0.05]}},
        ],
        "support_set": [1],
    }


@pytest.fixture(scope="module")
def planar():
    return cl.validate_system(planar_config())


@pytest.fixture(scope="module")
def planar_mu(planar):
    return cl.pushforward_measure(planar)


def test_planar_validates_and_contracts(planar):
    assert planar.dimension == 2
    assert planar.contraction_rate < 1.0
    spin = planar.edge("spin")
    assert spin.map.lipschitz_constant == pytest.approx(
        float(np.linalg.norm(np.array([[0.35, 0.2], [-0.2, 0.35]]), 2)),
        abs=1e-12)


def test_planar_constants(planar, planar_mu):
    cs = cl.derive_constants(planar, planar_mu)
    assert 0.0 < cs.a < 1.0
    # p_spin is smallest at the origin corner: 0.4; p_flat bottoms at 0.45
    assert cs.delta == 0.4
    assert cs.b <= cs.d + 1e-15
    assert cs.c_hat < cs.b / (1.0 - cs.a)
    assert cs.dini_sum_full > 0.0


def test_planar_coding_geometry(planar):
    rng = np.random.default_rng(44)
    a = planar.contraction_rate
    d = planar.max_displacement
    slack = 1e-12
    for _ in range(100):
        past = random_past(planar, rng, int(rng.integers(1, 15)))
        orbit = cl.backward_orbit(planar, past)
        chain = [planar.base_point(1)] + orbit[::-1]
        for k, (shallow, deeper) in enumerate(zip(chain, chain[1:])):
            gap = float(np.linalg.norm(deeper - shallow))
            assert gap <= a ** k * d + slack
        res = cl.coding_point(planar, past)
        assert float(np.linalg.norm(res.point - planar.base_point(1))) \
            <= d / (1.0 - a) + res.error_bound + slack


def test_planar_table_and_divergence(planar, planar_mu):
    table = cl.build_table(planar, 3, planar_mu)
    assert abs(math.fsum(table.phi0_values) - 1.0) <= 1e-12
    value = cl.kl_n(table)
    assert value >= 0.0
    cs = cl.derive_constants(planar, planar_mu)
    report = cl.evaluate_bounds(planar, cs)
    assert value <= report.bound_i_value
    assert np.max(table.logz_values) <= report.bound_ii_value


def test_planar_cover_and_sandwich(planar, planar_mu):
    cs = cl.derive_constants(planar, planar_mu)
    report = cl.evaluate_bounds(planar, cs)
    q = cl.cylinder_set(planar, [("spin", "flat")])
    m_q = cl.m_of_cylinder_set(planar, q, planar_mu)
    lower = cl.corollary_lower_bound(report, m_q)
    cost, candidate = cl.phi_upper(planar, q, 1, 2)
    assert candidate.exhaustive
    assert cl.consistency_check(lower, cost).passed
