from __future__ import annotations

import csv
import dataclasses
import math

import numpy as np
import pytest

import cmslab as cl

from conftest import sys_a_config, sys_b_config, sys_c_config
from oracles import (chain_cyl_prob, csv_writer_text, enumerate_paths,
                     stationary_via_eig, word_row)


# --- enumeration ------------------------------------------------------------

def test_enumerate_sys_a_depth_3(sys_a):
    words = cl.enumerate_words(sys_a, 3)
    assert len(words) == 8
    assert words == sorted(words)


def test_enumerate_sys_c_from_vertex(sys_c):
    words = [w for w in cl.enumerate_words(sys_c, 2)
             if sys_c.edge(w[0]).source == 1]
    assert len(words) == 4
    assert words == sorted(words)


def test_enumeration_matches_brute_force(sys_c):
    triples = [(e.id, e.source, e.target) for e in sys_c.edges]
    for n in (1, 2, 3):
        assert cl.enumerate_words(sys_c, n) == enumerate_paths(triples, n)


def test_depth_overflow(sys_a):
    with pytest.raises(cl.DepthOverflow):
        cl.enumerate_words(sys_a, 24)  # 2^24 > default cap of 1e7
    assert cl.count_words(sys_a, 24) == 2 ** 24


# --- chain and base measures ------------------------------------------------

def test_chain_prob_sys_a(sys_a):
    for n in (1, 3, 5):
        word = ("e1", "e2") * n
        p = chain_cyl_prob(sys_a, (1, np.array([0.25])), word[:n])
        assert p == 0.5 ** n


def test_chain_prob_sys_b_single(sys_b):
    p = chain_cyl_prob(sys_b, (1, np.array([0.0])), ("e1",))
    assert p == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_chain_prob_sys_b_two_step(sys_b):
    # direct substitution: p_e2(0) * p_e1(w_e2(0)) = (2/3) * ((1 + 1/2)/3)
    p = chain_cyl_prob(sys_b, (1, np.array([0.0])), ("e2", "e1"))
    oracle = (2.0 / 3.0) * ((1.0 + 0.5) / 3.0)
    assert p == oracle
    assert p == pytest.approx(1.0 / 3.0, abs=1e-15)
    # 0 is the base point of the only support vertex
    assert cl.phi0_cyl(sys_b, ("e2", "e1")) == p


def test_chain_prob_vertex_mismatch(sys_c):
    assert chain_cyl_prob(sys_c, (2, np.array([2.5])), ("c11",)) == 0.0


def test_phi0_values(sys_a, sys_b, sys_c):
    assert cl.phi0_cyl(sys_a, ("e1", "e2", "e1")) == 0.5 ** 3
    assert cl.phi0_cyl(sys_b, ("e1",)) == pytest.approx(1.0 / 3.0, abs=1e-15)
    for word in cl.enumerate_words(sys_c, 2):
        assert cl.phi0_cyl(sys_c, word) == 0.5 * 0.5 ** 2


def test_phi0_zero_outside_support():
    cfg = sys_c_config()
    cfg["support_set"] = [1]
    sys_ = cl.validate_system(cfg)
    word = next(w for w in cl.enumerate_words(sys_, 1)
                if sys_.edge(w[0]).source == 2)
    assert cl.phi0_cyl(sys_, word) == 0.0


def test_phi0_sums_to_one(sys_b, sys_c):
    for sys_ in (sys_b, sys_c):
        for n in (1, 2, 3):
            total = math.fsum(cl.phi0_cyl(sys_, w)
                              for w in cl.enumerate_words(sys_, n))
            assert total == pytest.approx(1.0, abs=1e-12)


# --- chain mass -------------------------------------------------------------

def _m_one(sys_, word, measure, rows=None):
    """M of the cylinder of one word."""
    return cl.m_of_cylinder_set(sys_, cl.cylinder_set(sys_, [word]), measure,
                                rows=rows)


def test_m_cyl_exact_sys_a(sys_a):
    for n in (1, 2, 4):
        word = ("e2",) * n
        assert _m_one(sys_a, word, cl.EXACT) == 0.5 ** n


def test_m_cyl_exact_sys_c_matches_eigen_oracle(sys_c):
    p = np.array([[0.5, 0.5], [0.5, 0.5]])
    pi = stationary_via_eig(p)
    word = ("c12", "c21", "c11")
    value = _m_one(sys_c, word, cl.EXACT)
    assert value == pytest.approx(float(pi[0]) * 0.5 ** 3, abs=1e-12)
    assert cl.stationary_vertex_distribution(sys_c) == pytest.approx(
        [0.5, 0.5], abs=1e-12)


def test_m_cyl_exact_unavailable_for_place_dependent(sys_b):
    with pytest.raises(cl.ExactModeUnavailable):
        _m_one(sys_b, ("e1",), cl.EXACT)


def test_m_cyl_mc_self_consistency(sys_b, mu_b):
    value = _m_one(sys_b, ("e1",), mu_b)
    mean = float(mu_b.mean_point()[0])
    assert value == pytest.approx((1.0 + mean) / 3.0, abs=1e-12)
    # and the invariant mean of this system is 1/2, so M(e1) is near 1/2
    assert abs(value - 0.5) <= 0.01


def test_m_cyl_mc_matches_scalar_path(sys_b, mu_b):
    word = ("e2", "e1")
    value = _m_one(sys_b, word, mu_b)
    direct = math.fsum(
        w * chain_cyl_prob(sys_b, (int(v), x), word)
        for v, x, w in zip(mu_b.vertices, mu_b.points, mu_b.weights))
    assert value == pytest.approx(direct, abs=1e-13)


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_m_of_cylinder_set_from_rows_equals_own_walk(mode, sys_c, mu_c):
    measure = cl.EXACT if mode == "exact" else mu_c
    rows = cl.walk_cylinders(sys_c, 4, measure)
    sets = [cl.cylinder_set(sys_c, [w]) for w in cl.enumerate_words(sys_c, 3)]
    sets += [cl.full_cylinder_set(sys_c, n) for n in (1, 3)]
    for q in sets:
        assert (cl.m_of_cylinder_set(sys_c, q, measure, rows=rows)
                == cl.m_of_cylinder_set(sys_c, q, measure))
    # past the rows' full depth: read the followed words, or walk along them
    deep = cl.cylinder_set(sys_c, cl.enumerate_words(sys_c, 6)[::9])
    followed = cl.walk_cylinders(sys_c, 2, measure, along=deep.words)
    expected = cl.m_of_cylinder_set(sys_c, deep, measure)
    assert cl.m_of_cylinder_set(sys_c, deep, measure, rows=followed) == expected
    assert cl.m_of_cylinder_set(sys_c, deep, measure, rows=rows) == expected
    full = cl.walk_cylinders(sys_c, 6, measure)[6]
    at = [full.words.index(w) for w in deep.words]
    assert expected == math.fsum(full.m_values[at])


def test_m_of_cylinder_set_rejects_inadmissible_word(sys_c):
    q = cl.CylinderSet(words=(("c11", "c21"),))  # c21 leaves vertex 2, not 1
    rows = cl.walk_cylinders(sys_c, 2, cl.EXACT)
    for walked in (rows, None):
        with pytest.raises(cl.InadmissibleWord):
            cl.m_of_cylinder_set(sys_c, q, cl.EXACT, rows=walked)


# --- the prefix-shared walk -------------------------------------------------

@pytest.fixture(scope="module")
def small_measures(sys_a, sys_b, sys_c):
    return {name: cl.pushforward_measure(s, 8)
            for name, s in (("sys_a", sys_a), ("sys_b", sys_b),
                            ("sys_c", sys_c))}


@pytest.mark.parametrize("name,mode", [
    ("sys_a", "exact"), ("sys_a", "mc"), ("sys_b", "mc"),
    ("sys_c", "exact"), ("sys_c", "mc"),
])
def test_walk_rows_match_per_word_oracle(name, mode, request, small_measures):
    sys_ = request.getfixturevalue(name)
    if mode == "exact":
        measure, pi = cl.EXACT, cl.stationary_vertex_distribution(sys_)
    else:
        measure, pi = small_measures[name], None
    rows = cl.walk_cylinders(sys_, 6, measure)
    assert sorted(rows) == [1, 2, 3, 4, 5, 6]
    for n in range(1, 7):
        words = cl.enumerate_words(sys_, n)
        assert rows[n].words == tuple(words)
        oracle = [word_row(sys_, w, measure, pi) for w in words]
        assert rows[n].m_values.tolist() == [r[0] for r in oracle]
        assert rows[n].phi0_values.tolist() == [r[1] for r in oracle]
        # a one-word set reads its row; phi0_cyl reads a walk along the word
        assert [_m_one(sys_, w, measure, rows) for w in words] == [
            r[0] for r in oracle]
        assert [cl.phi0_cyl(sys_, w) for w in words] == [r[1] for r in oracle]


def test_walk_takes_one_step_per_tree_node(sys_b, small_measures, monkeypatch):
    """Regression guard on the walk's cost, by counting instead of timing:
    p_e is evaluated once per node of the word tree, not once per edge of
    every word, and the points are moved only below internal nodes."""
    calls = {"value_many": 0, "apply_many": 0}

    def counting(cls, attr):
        original = getattr(cls, attr)

        def wrapper(self, pts):
            calls[attr] += 1
            return original(self, pts)

        monkeypatch.setattr(cls, attr, wrapper)

    counting(cl.ProbabilityFunction, "value_many")
    counting(cl.AffineMap, "apply_many")
    mu, n_max = small_measures["sys_b"], 6
    rows = cl.walk_cylinders(sys_b, n_max, mu)
    nodes = sum(cl.count_words(sys_b, n) for n in range(1, n_max + 1))
    assert calls["value_many"] == nodes
    assert calls["apply_many"] == nodes - cl.count_words(sys_b, n_max)

    # tables and K* read the shared rows without stepping again
    for n in range(1, 5):
        cl.build_table(sys_b, n, mu, rows=rows)
    for window in (0, 1, 2):
        cl.kstar_estimate(sys_b, window, 4, mu, rows=rows)
    assert calls["value_many"] == nodes


def test_walk_follows_words_past_full_depth(sys_b, small_measures,
                                            monkeypatch):
    """Past n_max the walk steps only along the prefixes of the followed
    words, and reads each of them exactly as a full walk does."""
    mu, deep = small_measures["sys_b"], cl.enumerate_words(sys_b, 6)[::11]
    full = cl.walk_cylinders(sys_b, 6, mu)
    steps = []
    original = cl.ProbabilityFunction.value_many
    monkeypatch.setattr(cl.ProbabilityFunction, "value_many",
                        lambda self, pts: steps.append(1) or original(self, pts))
    rows = cl.walk_cylinders(sys_b, 2, mu, along=deep)
    prefixes = {n: sorted({w[:n] for w in deep}) for n in range(3, 7)}
    assert len(steps) == (cl.count_words(sys_b, 1) + cl.count_words(sys_b, 2)
                          + sum(map(len, prefixes.values())))
    for n in range(1, 7):
        assert rows[n].complete == (n <= 2)
        words = full[n].words if n <= 2 else prefixes[n]
        assert sorted(rows[n].words) == sorted(words)
        at = [full[n].words.index(w) for w in rows[n].words]
        for key in ("m_values", "phi0_values"):
            assert getattr(rows[n], key).tolist() == getattr(full[n], key)[at].tolist()
    # a table never reads rows the walk did not complete
    assert (cl.build_table(sys_b, 4, mu, rows=rows).m_values.tolist()
            == full[4].m_values.tolist())
    assert (sorted(cl.walk_cylinders(sys_b, 0, mu, along=deep)[6].words)
            == sorted(deep))


def test_walk_respects_word_cap(sys_a, monkeypatch):
    monkeypatch.setattr(cl.cylinders, "WORD_CAP", 8)
    with pytest.raises(cl.DepthOverflow):
        cl.walk_cylinders(sys_a, 4, cl.EXACT)
    with pytest.raises(ValueError):
        cl.walk_cylinders(sys_a, 0, cl.EXACT)


# --- tables -----------------------------------------------------------------

def test_table_sys_a_all_unit_density(sys_a):
    table = cl.build_table(sys_a, 4, cl.EXACT)
    assert len(table) == 16
    assert all(float(z) == 1.0 for z in table.z_values)
    assert all(float(lz) == 0.0 for lz in table.logz_values)


def test_table_sys_c_all_unit_density(sys_c):
    table = cl.build_table(sys_c, 3, cl.EXACT)
    assert all(float(z) == 1.0 for z in table.z_values)


def test_table_sys_b_depth_2(sys_b, mu_b):
    table = cl.build_table(sys_b, 2, mu_b)
    assert len(table) == 4
    assert abs(math.fsum(table.m_values) - 1.0) <= 1e-12
    assert np.max(np.abs(table.logz_values)) <= 2.0


@pytest.mark.parametrize("mode_fixture,depths", [
    ("sys_a", (3, 4)),
    ("sys_c", (2, 3)),
])
def test_kolmogorov_consistency_exact(mode_fixture, depths, request):
    sys_ = request.getfixturevalue(mode_fixture)
    shallow = cl.build_table(sys_, depths[0], cl.EXACT)
    deep = cl.build_table(sys_, depths[1], cl.EXACT)
    _check_consistency(sys_, shallow, deep, tol=1e-12)


def test_kolmogorov_consistency_mc(sys_b, mu_b):
    shallow = cl.build_table(sys_b, 2, mu_b)
    deep = cl.build_table(sys_b, 3, mu_b)
    _check_consistency(sys_b, shallow, deep, tol=1e-12)


def _check_consistency(sys_, shallow, deep, tol):
    deep_m = {w: float(m) for w, m in zip(deep.words, deep.m_values)}
    deep_phi = {w: float(p) for w, p in zip(deep.words, deep.phi0_values)}
    for word, m, phi, z in zip(shallow.words, shallow.m_values,
                               shallow.phi0_values, shallow.z_values):
        last_vertex = sys_.edge(word[-1]).target
        extensions = [word + (e.id,) for e in sys_.out_edges(last_vertex)]
        assert abs(math.fsum(deep_m[w] for w in extensions) - float(m)) <= tol
        assert abs(math.fsum(deep_phi[w] for w in extensions) - float(phi)) <= tol
        # martingale identity: the phi0-weighted density of the refinement
        # reproduces the coarse one
        z_of = dict(zip(deep.words, deep.z_values))
        lhs = math.fsum(deep_phi[w] * float(z_of[w]) for w in extensions)
        assert abs(lhs - float(phi) * float(z)) <= tol


def test_absolute_continuity_violation():
    cfg = sys_c_config()
    cfg["support_set"] = [1]
    sys_ = cl.validate_system(cfg)
    with pytest.raises(cl.AbsoluteContinuityViolation):
        cl.build_table(sys_, 2, cl.EXACT)


def test_table_csv_round_trip(tmp_path, sys_b, mu_b):
    table = cl.build_table(sys_b, 2, mu_b)
    path = tmp_path / "depth_2.csv"
    table.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["word", "M", "phi0", "Z", "logZ", "stderr"]
    assert len(rows) == len(table) + 1
    for row, word, m in zip(rows[1:], table.words, table.m_values):
        assert row[0] == ".".join(word)
        assert float(row[1]) == float(m)


def test_table_csv_is_what_csv_writer_wrote(tmp_path, sys_a, sys_b,
                                            monkeypatch):
    """The same bytes as csv.writer with repr(float(x)) per number, across
    blocks of 3 and of 4 rows: exact sys A tables, whose numbers repeat
    within and across blocks, of 2 rows (fewer than a block), 4 and 8 (a
    multiple of 4 and not of 3); one of them with 0.0 and -0.0 in one block
    and a -inf logZ; and Monte Carlo tables, one of whose words hold a
    comma or a quote and are quoted as csv.writer quotes them."""
    cfg = sys_b_config()
    cfg["edges"][0]["id"], cfg["edges"][1]["id"] = 'e,1', 'e"2'
    tables = [cl.build_table(sys_a, n, cl.EXACT) for n in (1, 2, 3)]
    tables += [cl.build_table(sys_, 3, cl.pushforward_measure(sys_, 5))
               for sys_ in (sys_b, cl.validate_system(cfg))]
    logz = tables[2].logz_values.copy()
    logz[1], logz[2] = -0.0, -math.inf
    tables.append(dataclasses.replace(tables[2], logz_values=logz))
    assert len(set(tables[2].m_values.tolist())) == 1
    path = tmp_path / "table.csv"
    for block in (3, 4):
        monkeypatch.setattr(cl.simulate, "CSV_BLOCK", block)
        for table in tables:
            table.to_csv(path)
            expected = csv_writer_text(
                ["word", "M", "phi0", "Z", "logZ", "stderr"],
                ([".".join(w), *values, 0.0] for w, *values in zip(
                    table.words, table.m_values, table.phi0_values,
                    table.z_values, table.logz_values)))
            with open(path, newline="") as fh:
                assert fh.read() == expected


def _alpha_raised(make_config) -> dict:
    """The config with alpha(e1) raised by 9e-13: validation admits
    out-edge probabilities that sum to 1 + 9e-13."""
    cfg = make_config()
    cfg["edges"][0]["prob"]["alpha"] += 9e-13
    return cfg


@pytest.mark.parametrize("make_config, mode", [
    (sys_a_config, "exact"), (sys_a_config, "mu_N"), (sys_b_config, "mu_N")])
def test_tables_accept_the_normalization_gap_validation_admits(make_config,
                                                                mode):
    """n levels compound the gap g = 9e-13 to a mass sum near 1 + n g,
    past 1e-12 from depth 2 on; build_table allows n g."""
    sys_ = cl.validate_system(_alpha_raised(make_config))
    assert abs(sys_.normalization_gap - 9e-13) < 1e-15
    measure = cl.EXACT if mode == "exact" else cl.pushforward_measure(sys_)
    for n in range(1, 5):
        table = cl.build_table(sys_, n, measure)
        assert abs(math.fsum(table.m_values) - 1.0) <= 1e-12 + n * 9.1e-13
    assert math.fsum(table.phi0_values) - 1.0 > 3e-12


def test_tables_refuse_sums_past_the_normalization_gap():
    """Rows whose masses or base measures sum to 1.01 still raise."""
    sys_ = cl.validate_system(_alpha_raised(sys_a_config))
    raw = cl.walk_cylinders(sys_, 2, cl.EXACT)[2]
    for key in ("m_values", "phi0_values"):
        rows = {2: dataclasses.replace(raw, **{key: getattr(raw, key) * 1.01})}
        with pytest.raises(cl.AbsoluteContinuityViolation, match="sum to"):
            cl.build_table(sys_, 2, cl.EXACT, rows=rows)


def test_cylinder_set_validation(sys_a):
    q = cl.cylinder_set(sys_a, [("e1", "e2"), ("e2", "e2")])
    assert q.depth == 2
    with pytest.raises(cl.InadmissibleWord):
        cl.cylinder_set(sys_a, [("e1",), ("e1", "e2")])  # mixed depth
    with pytest.raises(cl.InadmissibleWord):
        cl.cylinder_set(sys_a, [("e1",), ("e1",)])  # duplicate


def test_m_of_cylinder_set(sys_a):
    q = cl.full_cylinder_set(sys_a, 3)
    assert cl.m_of_cylinder_set(sys_a, q, cl.EXACT) == 1.0
