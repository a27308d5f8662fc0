from __future__ import annotations

import math

import pytest

import cmslab as cl

from conftest import sys_c_config


# --- depth-n divergence -----------------------------------------------------

def test_kl_zero_on_sys_a(sys_a):
    for n in (1, 3, 5):
        value, stderr = cl.kl_n(cl.build_table(sys_a, n, cl.EXACT))
        assert value == 0.0
        assert stderr == 0.0


def test_kl_zero_on_sys_c(sys_c):
    for n in (1, 2, 4):
        value, _ = cl.kl_n(cl.build_table(sys_c, n, cl.EXACT))
        assert value == 0.0


def test_kl_series_sys_b(sys_b, mu_b, constants_b):
    report = cl.evaluate_bounds(sys_b, constants_b)
    series = []
    for n in range(1, 5):
        series.append(cl.kl_n(cl.build_table(sys_b, n, mu_b)))
    for value, stderr in series:
        assert value >= -3.0 * stderr
        assert value <= report.bound_i_value + 3.0 * stderr
    for (v1, s1), (v2, s2) in zip(series, series[1:]):
        assert v2 >= v1 - 3.0 * math.hypot(s1, s2)


# --- closed-form bound values -----------------------------------------------

def test_bounds_sys_a(sys_a, constants_a):
    report = cl.evaluate_bounds(sys_a, constants_a)
    assert report.bound_i_value == pytest.approx(
        2.0 * (1.0 / (1.0 - math.sqrt(0.5))), abs=1e-12)
    assert report.bound_ii_value == 0.0
    assert report.corollary_factor == 1.0


def test_bounds_sys_b(sys_b, constants_b):
    report = cl.evaluate_bounds(sys_b, constants_b)
    assert report.bound_ii_value == pytest.approx(2.0, abs=1e-10)
    assert report.corollary_factor == pytest.approx(math.exp(-2.0), abs=1e-10)
    assert 0.0 < report.corollary_factor <= 1.0 / len(sys_b.support_set)


def test_bounds_sys_c(sys_c, constants_c):
    report = cl.evaluate_bounds(sys_c, constants_c)
    assert report.bound_ii_value == pytest.approx(math.log(2.0), abs=1e-14)
    assert report.corollary_factor == 0.5


def test_bounds_refused_without_contraction(sys_a, constants_a):
    from dataclasses import replace

    fake = replace(constants_a, a=1.0)
    with pytest.raises(cl.NotUniformlyContractive):
        cl.evaluate_bounds(sys_a, fake)


# --- corollary lower bound --------------------------------------------------

def test_corollary_whole_space_sys_a(sys_a, constants_a):
    report = cl.evaluate_bounds(sys_a, constants_a)
    q = cl.full_cylinder_set(sys_a, 2)
    m_q = cl.m_of_cylinder_set(sys_a, q, cl.EXACT)
    lower, stderr = cl.corollary_lower_bound(report, m_q)
    assert lower == 1.0
    assert stderr == 0.0


def test_corollary_single_cylinder_sys_b(sys_b, mu_b, constants_b):
    report = cl.evaluate_bounds(sys_b, constants_b)
    q = cl.cylinder_set(sys_b, [("e1",)])
    m_q = cl.m_of_cylinder_set(sys_b, q, mu_b)
    lower, stderr = cl.corollary_lower_bound(report, m_q)
    assert lower == pytest.approx(m_q[0] * math.exp(-2.0), rel=1e-9)
    assert stderr == pytest.approx(m_q[1] * math.exp(-2.0), rel=1e-9)


def test_corollary_zero_mass(sys_c, constants_c):
    report = cl.evaluate_bounds(sys_c, constants_c)
    lower, stderr = cl.corollary_lower_bound(report, (0.0, 0.0))
    assert lower == 0.0 and stderr == 0.0


# --- shift-maximized divergence ----------------------------------------------

def test_kstar_zero_on_sys_a(sys_a):
    for window, depth in ((0, 2), (1, 2), (2, 3)):
        value, stderr = cl.kstar_estimate(sys_a, window, depth, cl.EXACT)
        assert value == 0.0
        assert stderr == 0.0


def test_kstar_window_zero_equals_kl_exactly(sys_b, mu_b, sys_c):
    for sys_, measure in ((sys_b, mu_b), (sys_c, cl.EXACT)):
        for depth in (1, 2, 3):
            table = cl.build_table(sys_, depth, measure)
            k_value, _ = cl.kl_n(table)
            kstar_value, _ = cl.kstar_estimate(sys_, 0, depth, measure)
            assert kstar_value == k_value  # bitwise, same summation path


def test_kstar_nondecreasing_in_window(sys_b, mu_b):
    values = [cl.kstar_estimate(sys_b, w, 3, mu_b)[0] for w in (0, 1, 2)]
    k3, _ = cl.kl_n(cl.build_table(sys_b, 3, mu_b))
    assert values[0] == k3
    for v1, v2 in zip(values, values[1:]):
        assert v2 >= v1 - 1e-15


def test_kstar_from_shared_rows_equals_standalone(sys_b, mu_b, sys_c):
    for sys_, measure in ((sys_b, mu_b), (sys_c, cl.EXACT)):
        depth = 3
        rows = cl.walk_cylinders(sys_, depth + 2, measure)
        for window in (0, 1, 2):
            shared = cl.kstar_estimate(sys_, window, depth, measure, rows=rows)
            assert shared == cl.kstar_estimate(sys_, window, depth, measure)
        k_n, _ = cl.kl_n(cl.build_table(sys_, depth, measure, rows=rows))
        assert cl.kstar_estimate(sys_, 0, depth, measure, rows=rows)[0] == k_n


def test_kstar_walks_past_short_rows(sys_c, monkeypatch):
    rows = cl.walk_cylinders(sys_c, 2, cl.EXACT)
    assert (cl.kstar_estimate(sys_c, 1, 2, cl.EXACT, rows=rows)
            == cl.kstar_estimate(sys_c, 1, 2, cl.EXACT))
    monkeypatch.setattr(cl.cylinders, "WORD_CAP", 10)
    with pytest.raises(cl.DepthOverflow):
        cl.kstar_estimate(sys_c, 1, 2, cl.EXACT, rows=rows)


def test_kstar_absolute_continuity_pass_through():
    cfg = sys_c_config()
    cfg["support_set"] = [1]
    sys_ = cl.validate_system(cfg)
    with pytest.raises(cl.AbsoluteContinuityViolation):
        cl.kstar_estimate(sys_, 1, 2, cl.EXACT)


def test_kstar_reads_noise_level_mass_as_kl_does():
    # one of 1,000 samples sits at vertex 2, outside the support set: its
    # words carry mass within sampling noise on zero base measure, which
    # build_table accepts with log Z = 0, so K* adds 0 for them as K_n does
    cfg = sys_c_config()
    cfg["support_set"] = [1]
    sys_ = cl.validate_system(cfg)
    mu = cl.EmpiricalMeasure(vertices=[1] * 999 + [2],
                             points=[[0.0]] * 999 + [[2.0]],
                             weights=[1.0 / 1000] * 1000)
    for depth in (1, 2):
        k_n = cl.kl_n(cl.build_table(sys_, depth, mu))
        assert cl.kstar_estimate(sys_, 0, depth, mu) == k_n  # bitwise
        k_1 = cl.kstar_estimate(sys_, 1, depth, mu)
        assert all(map(math.isfinite, k_1))
        assert k_1[0] >= k_n[0]  # a larger window never lowers K*


# --- diagnostics ------------------------------------------------------------

def test_diagnostic_row_sys_a(sys_a, constants_a):
    report = cl.evaluate_bounds(sys_a, constants_a)
    table = cl.build_table(sys_a, 3, cl.EXACT)
    report.k_n_series.append((3, *cl.kl_n(table)))
    report.kstar_estimates.append((2, 3, *cl.kstar_estimate(sys_a, 2, 3, cl.EXACT)))
    q = cl.full_cylinder_set(sys_a, 3)
    cost, _ = cl.phi_upper(sys_a, q, 2, 3)
    k_n = report.k_n_series[-1][1]
    kstar = report.kstar_estimates[-1][2]
    assert (k_n, kstar, math.exp(k_n - kstar), cost) == (0.0, 0.0, 1.0, 1.0)


def test_diagnostic_gap_at_most_one_sys_b(sys_b, mu_b, constants_b):
    report = cl.evaluate_bounds(sys_b, constants_b)
    table = cl.build_table(sys_b, 3, mu_b)
    report.k_n_series.append((3, *cl.kl_n(table)))
    report.kstar_estimates.append((2, 3, *cl.kstar_estimate(sys_b, 2, 3, mu_b)))
    # the window includes shift 0, so the gap exponent is <= 0 up to noise
    k_n = report.k_n_series[-1][1]
    kstar = report.kstar_estimates[-1][2]
    assert math.exp(k_n - kstar) <= 1.0 + 1e-12


def test_report_serialization(sys_b, constants_b):
    report = cl.evaluate_bounds(sys_b, constants_b)
    blob = report.to_dict()
    assert blob["constants"]["delta"] == constants_b.delta
    assert blob["bound_ii_value"] == report.bound_ii_value
    assert isinstance(blob["pass_flags"], dict)
