"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line into the terminal summary so the whole
gate can be read at a glance after `pytest -v`.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

import numpy as np

import cmslab as cl
from cmslab.cli import ExperimentPlan, run

from conftest import record_acceptance, sys_a_config
from test_coding import extend_past, random_past


@contextmanager
def criterion(num: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        record_acceptance(f"criterion {num:2d}: FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    record_acceptance(
        f"criterion {num:2d}: PASS  {description}  [{elapsed:.2f}s]")


def _fresh_mu_b(sys_b, n=100_000):
    return cl.estimate_invariant(sys_b, n, burn_in=1000, seed=42)


def test_criterion_1_exact_identity_suite(sys_a, sys_c):
    with criterion(1, "exact-mode identity: Z = 1 and K_n = 0 to 1e-12"):
        start = time.perf_counter()
        for sys_, depths in ((sys_a, range(1, 9)), (sys_c, range(1, 6))):
            for n in depths:
                table = cl.build_table(sys_, n, cl.EXACT)
                assert np.all(np.abs(table.z_values - 1.0) <= 1e-12)
                value, _ = cl.kl_n(table)
                assert abs(value) <= 1e-12
        assert time.perf_counter() - start < 5.0


def _consistency_and_martingale(sys_, shallow, deep, tol):
    deep_m = dict(zip(deep.words, deep.m_values))
    deep_phi = dict(zip(deep.words, deep.phi0_values))
    deep_z = dict(zip(deep.words, deep.z_values))
    for word, m, phi, z in zip(shallow.words, shallow.m_values,
                               shallow.phi0_values, shallow.z_values):
        ext = [word + (e.id,)
               for e in sys_.out_edges(sys_.edge(word[-1]).target)]
        assert abs(math.fsum(float(deep_m[w]) for w in ext) - float(m)) <= tol
        assert abs(math.fsum(float(deep_phi[w]) for w in ext) - float(phi)) <= tol
        lhs = math.fsum(float(deep_phi[w]) * float(deep_z[w]) for w in ext)
        assert abs(lhs - float(phi) * float(z)) <= tol


def test_criterion_2_martingale_and_consistency(sys_a, sys_b, sys_c):
    with criterion(2, "Kolmogorov consistency and martingale identity"):
        start = time.perf_counter()
        for sys_, depths in ((sys_a, range(1, 9)), (sys_c, range(1, 6))):
            tables = {n: cl.build_table(sys_, n, cl.EXACT) for n in depths}
            for n in list(depths)[:-1]:
                _consistency_and_martingale(sys_, tables[n], tables[n + 1],
                                            tol=1e-12)
        mu = _fresh_mu_b(sys_b)
        tables = {n: cl.build_table(sys_b, n, mu) for n in range(1, 7)}
        for n in range(1, 6):
            sigma = 3.0 * math.sqrt(float(np.sum(tables[n + 1].stderrs ** 2)))
            _consistency_and_martingale(sys_b, tables[n], tables[n + 1],
                                        tol=sigma + 1e-12)
        assert time.perf_counter() - start < 60.0


def test_criterion_3_divergence_below_average_contraction_bound(sys_b, mu_b):
    with criterion(3, "K_n series below the averaged-modulus bound"):
        start = time.perf_counter()
        constants = cl.derive_constants(sys_b, mu_b)
        c_plus = constants.c_hat + 3.0 * constants.c_hat_stderr
        rhs = math.log(1) + (1.0 / constants.delta) * (
            1.0 / (1.0 - math.sqrt(constants.a))
            + cl.modulus_geometric_sum(sys_b, math.sqrt(constants.a), c_plus))
        series = [cl.kl_n(cl.build_table(sys_b, n, mu_b))
                  for n in range(1, 7)]
        for value, stderr in series:
            assert value >= -3.0 * stderr
            assert value <= rhs + 3.0 * stderr
        for (v1, s1), (v2, s2) in zip(series, series[1:]):
            assert v2 >= v1 - 3.0 * math.hypot(s1, s2)
        assert time.perf_counter() - start < 300.0


def test_criterion_4_pointwise_density_bound(sys_b, mu_b):
    with criterion(4, "pointwise log-density below 2 on every row, n <= 6"):
        for n in range(1, 7):
            table = cl.build_table(sys_b, n, mu_b)
            for m, lz, se in zip(table.m_values, table.logz_values,
                                 table.stderrs):
                if m > 0.0:
                    assert float(lz) <= 2.0 + 3.0 * float(se) / float(m)


def test_criterion_5_corollary_sandwich(sys_a, sys_b, sys_c, mu_b,
                                        constants_a, constants_b, constants_c):
    with criterion(5, "corollary lower bound below cover upper bound"):
        cases = [
            (sys_a, constants_a, cl.EXACT),
            (sys_b, constants_b, mu_b),
            (sys_c, constants_c, cl.EXACT),
        ]
        for sys_, constants, measure in cases:
            report = cl.evaluate_bounds(sys_, constants)
            for depth in (1, 2, 3):
                for word in cl.enumerate_words(sys_, depth):
                    q = cl.CylinderSet(words=(word,))
                    m_q = cl.m_of_cylinder_set(sys_, q, measure)
                    lower = cl.corollary_lower_bound(report, m_q)
                    cost, _ = cl.phi_upper(sys_, q, 1, depth)
                    assert cl.consistency_check(lower, cost).passed

        # whole space of the halving system: both sides exactly 1
        report = cl.evaluate_bounds(sys_a, constants_a)
        q = cl.full_cylinder_set(sys_a, 3)
        m_q = cl.m_of_cylinder_set(sys_a, q, cl.EXACT)
        lower = cl.corollary_lower_bound(report, m_q)
        cost, _ = cl.phi_upper(sys_a, q, 2, 3)
        assert lower[0] == 1.0
        assert cost == 1.0


def _deepest_point(sys_, past):
    x = sys_.base_point(sys_.edge(past[0]).source)
    for eid in past:
        x = sys_.edge(eid).map.apply(x)
    return x


def test_criterion_6_coding_geometry(sys_a, sys_b, sys_c):
    with criterion(6, "coding-map geometry on 1000 random pasts per system"):
        rng = np.random.default_rng(2718)
        for sys_ in (sys_a, sys_b, sys_c):
            a = sys_.contraction_rate
            d = sys_.max_displacement
            reach = d / (1.0 - a)
            for _ in range(1000):
                depth = int(rng.integers(1, 21))
                past = random_past(sys_, rng, depth)
                orbit = cl.backward_orbit(sys_, past)
                anchor = sys_.base_point(sys_.edge(past[-1]).target)

                chain = [anchor] + orbit[::-1]
                for k, (shallow, deeper) in enumerate(zip(chain, chain[1:])):
                    assert float(np.linalg.norm(deeper - shallow)) <= a ** k * d

                point = orbit[0]
                err = a ** depth * reach
                refined = _deepest_point(sys_, extend_past(sys_, rng, past, 10))
                assert float(np.linalg.norm(point - refined)) <= err
                assert float(np.linalg.norm(point - anchor)) <= reach + err

                out = sys_.out_edges(sys_.edge(past[-1]).target)
                e = out[int(rng.integers(len(out)))]
                extended = _deepest_point(sys_, past + (e.id,))
                residual = float(np.linalg.norm(extended - e.map.apply(point)))
                assert residual <= a * err + a ** (depth + 1) * reach


def test_criterion_7_average_contraction_decay(sys_b, mu_b):
    with criterion(7, "average-contraction decay and c_hat < b/(1-a)"):
        constants = cl.derive_constants(sys_b, mu_b)
        rows = cl.check_average_contraction(sys_b, mu_b, i_max=8, n_mc=5000,
                                            seed=17)
        for row in rows:
            assert row.estimate <= row.bound + 3.0 * row.stderr
        assert constants.c_hat < constants.b / (1.0 - constants.a) \
            + 3.0 * constants.c_hat_stderr


def test_criterion_8_kstar_behavior(sys_a, sys_b, mu_b):
    with criterion(8, "shift-maximized divergence: anchoring and monotonicity"):
        for n in (1, 2, 3):
            table = cl.build_table(sys_b, n, mu_b)
            assert cl.kstar_estimate(sys_b, 0, n, mu_b)[0] == cl.kl_n(table)[0]
        values = [cl.kstar_estimate(sys_b, w, 3, mu_b) for w in (0, 1, 2)]
        for (v1, s1), (v2, s2) in zip(values, values[1:]):
            assert v2 >= v1 - 3.0 * math.hypot(s1, s2) - 1e-15
        for w in (0, 1, 2):
            assert cl.kstar_estimate(sys_a, w, 3, cl.EXACT)[0] == 0.0


def test_criterion_9_cover_search(sys_a, sys_b):
    with criterion(9, "exhaustive cover search, certificates, monotonicity"):
        q = cl.full_cylinder_set(sys_a, 3)
        cost, candidate = cl.phi_upper(sys_a, q, 2, 3)
        assert cost == 1.0
        assert candidate.exhaustive
        cl.verify_certificate_data(
            json.loads(json.dumps(cl.certificate_dict(sys_a, q, candidate))))

        cylinder_grid = [(0, 3), (1, 3), (2, 3), (2, 4)]
        whole_space_grid = [(0, 3), (1, 3), (2, 3)]
        sweep = [(sys_a, cl.full_cylinder_set(sys_a, 2), whole_space_grid)]
        sweep += [(sys_a, cl.CylinderSet(words=(w,)), cylinder_grid)
                  for w in cl.enumerate_words(sys_a, 2)]
        sweep += [(sys_b, cl.CylinderSet(words=(w,)), cylinder_grid)
                  for w in cl.enumerate_words(sys_b, 2)[:2]]
        for sys_, query, grid in sweep:
            costs = []
            for w, n in grid:
                c, cand = cl.phi_upper(sys_, query, w, n)
                assert cand.exhaustive
                cl.verify_certificate_data(json.loads(json.dumps(
                    cl.certificate_dict(sys_, query, cand))))
                costs.append(c)
            for c1, c2 in zip(costs, costs[1:]):
                assert c2 <= c1 + 1e-15


def test_criterion_10_run_determinism(tmp_path):
    with criterion(10, "byte-identical bounds.json for repeated exact runs"):
        config = tmp_path / "sys_a.json"
        config.write_text(json.dumps(sys_a_config()))

        def plan(out):
            return ExperimentPlan(
                config_path=str(config), mode="exact", seed=33,
                mc_samples=4000, burn_in=500, depths=[1, 2, 3, 4],
                kstar_windows=[0, 1, 2], kstar_depth=3, cover_window=2,
                cover_depth=3,
                queries=[{"whole_space_depth": 3}, {"words": ["e1.e2"]}],
                output_dir=str(tmp_path / out))

        assert run(plan("r1")) == 0
        assert run(plan("r2")) == 0
        b1 = (tmp_path / "r1" / "bounds.json").read_bytes()
        b2 = (tmp_path / "r2" / "bounds.json").read_bytes()
        assert b1 == b2
        assert b1  # nonempty
