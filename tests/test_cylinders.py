from __future__ import annotations

import csv
import dataclasses
import inspect
import math
import time
import tracemalloc

import numpy as np
import pytest

import cmslab as cl

from conftest import (fold_calls, loop_into_loop_config, m_of,
                      one_loop_config, ring_config, sys_a_config,
                      sys_b_config, sys_c_config, table_of)
from oracles import (chain_cyl_prob, csv_writer_text, enumerate_paths,
                     stationary_via_eig, tuple_walk, word_row)


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


def test_word_counts_are_closed_form():
    """count_words costs O(log n) matrix products whatever the growth: one
    word per depth on one loop, n + 2 words on a loop feeding a loop, both
    exact at any depth whose count fits the walk cap."""
    one = cl.validate_system(one_loop_config())
    two = cl.validate_system(loop_into_loop_config())
    start = time.perf_counter()
    assert cl.count_words(one, 10 ** 8) == 1
    assert time.perf_counter() - start < 0.1
    for n in (0, 1, 5, 10 ** 6, 2 * cl.cylinders.WORD_CAP - 2):
        assert cl.count_words(two, n) == n + 2
    assert cl.count_words(two, 10 ** 12) > 2 * cl.cylinders.WORD_CAP
    assert [cl.count_words(two, n) for n in range(1, 6)] == [
        len(cl.enumerate_words(two, n)) for n in range(1, 6)]


def test_word_cap_check_is_fast_on_a_wide_graph():
    """The counts are float64 matrix products: on a ring of 100 vertices
    with two out-edges each, depth 1000 (100 2^1000 words) overflows within
    a second, and depth 5 counts its 100 2^5 words and 100 (2^6 - 1) tree
    nodes exactly."""
    ring = cl.validate_system(ring_config())
    start = time.perf_counter()
    with pytest.raises(cl.DepthOverflow,
                       match="^depth 1000 exceeds the word cap"):
        cl.cylinders.check_word_cap(ring, 1000)
    assert time.perf_counter() - start < 1.0
    assert cl.cylinders._tree_counts(ring, 5) == (100 * 2 ** 5,
                                                   100 * (2 ** 6 - 1))


def test_walk_cap_binds_on_a_loop(monkeypatch):
    """On one loop the walk to depth n takes n + 1 nodes, its root
    included, and holds a word of every length up to n: with the word cap
    at 5 the walk cap is 2 * 5 * 3 = 30, which depth 5 (5 * 6) fits and
    depth 6 (6 * 7) does not, though each has one word."""
    one = cl.validate_system(one_loop_config())
    monkeypatch.setattr(cl.cylinders, "WORD_CAP", 5)
    assert len(cl.walk_cylinders(one, 5, cl.EXACT).rows) == 5
    with pytest.raises(cl.DepthOverflow,
                       match="^depth 6 exceeds the walk cap 30 on depth "
                             "times tree nodes$"):
        cl.walk_cylinders(one, 6, cl.EXACT)


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

def _m_one(sys_, word, measure):
    """M of the cylinder of one word, from a walk of its own."""
    return m_of(sys_, cl.cylinder_set(sys_, [word]), measure)


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
    walk = cl.walk_cylinders(sys_c, 4, measure)
    sets = [cl.cylinder_set(sys_c, [w]) for w in cl.enumerate_words(sys_c, 3)]
    sets += [cl.full_cylinder_set(sys_c, n) for n in (1, 3)]
    for q in sets:
        assert cl.m_of_cylinder_set(walk, q) == m_of(sys_c, q, measure)
    # past the walk's depth: fold the words
    deep = cl.cylinder_set(sys_c, cl.enumerate_words(sys_c, 6)[::9])
    shallow = cl.walk_cylinders(sys_c, 2, measure)
    expected = m_of(sys_c, deep, measure)
    assert cl.m_of_cylinder_set(shallow, deep) == expected
    assert cl.m_of_cylinder_set(walk, deep) == expected
    full = cl.walk_cylinders(sys_c, 6, measure).rows[6]
    at = [full.words.index(w) for w in deep.words]
    assert expected == math.fsum(full.m_values[at])


def test_m_of_cylinder_set_rejects_inadmissible_word(sys_c):
    q = cl.CylinderSet(words=(("c11", "c21"),))  # c21 leaves vertex 2, not 1
    for walk in (cl.walk_cylinders(sys_c, 2, cl.EXACT),
                 cl.walk_cylinders(sys_c, 1, cl.EXACT)):
        with pytest.raises(cl.InadmissibleWord):
            cl.m_of_cylinder_set(walk, q)


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
    walk = cl.walk_cylinders(sys_, 6, measure)
    rows = walk.rows
    assert sorted(rows) == [1, 2, 3, 4, 5, 6]
    for n in range(1, 7):
        words = cl.enumerate_words(sys_, n)
        assert rows[n].words == tuple(words)
        oracle = [word_row(sys_, w, measure, pi) for w in words]
        assert rows[n].m_values.tolist() == [r[0] for r in oracle]
        assert rows[n].phi0_values.tolist() == [r[1] for r in oracle]
        # a one-word set reads its row; phi0_cyl folds the word
        assert [cl.m_of_cylinder_set(walk, cl.cylinder_set(sys_, [w]))
                for w in words] == [r[0] for r in oracle]
        assert [cl.phi0_cyl(sys_, w) for w in words] == [r[1] for r in oracle]


def _count_calls(monkeypatch, *attrs: tuple[type, str]) -> dict[str, int]:
    """Wrap each (class, method) so that calling it counts under its name."""
    calls = {}
    for cls, attr in attrs:
        original = getattr(cls, attr)

        def wrapper(self, x, _attr=attr, _original=original):
            calls[_attr] += 1
            return _original(self, x)

        calls[attr] = 0
        monkeypatch.setattr(cls, attr, wrapper)
    return calls


def _count_steps(monkeypatch, calls: dict[str, int], **names: str) -> None:
    """Wrap each chain step cylinders.<name>, given as key=name, so that
    calling it counts under its key."""
    for key, name in names.items():
        step = getattr(cl.cylinders, name)

        def counted(state, e, leaf, _key=key, _step=step):
            calls[_key] += 1
            return _step(state, e, leaf)

        calls[key] = 0
        monkeypatch.setattr(cl.cylinders, name, counted)


def _atom_work(monkeypatch) -> tuple[list[int], dict[str, int]]:
    """Record the atoms of each per-atom pass of a Monte Carlo walk
    (cylinders._reweigh), in order, and count its steps and every call
    that evaluates p_e at points or moves them."""
    sizes = []
    original = cl.cylinders._reweigh
    monkeypatch.setattr(cl.cylinders, "_reweigh",
                        lambda x, *args: sizes.append(len(x))
                        or original(x, *args))
    calls = _count_calls(monkeypatch, (cl.ProbabilityFunction, "value_many"),
                         (cl.AffineMap, "apply_many"))
    _count_steps(monkeypatch, calls, step="_atoms_step")
    return sizes, calls


def test_walk_takes_one_step_per_tree_node(sys_b, sys_c, small_measures,
                                           monkeypatch):
    """Regression guard on the walk's cost, by counting instead of timing:
    a Monte Carlo walk takes one step per node of the word tree, not one
    per edge of every word, and no scalar step, so M and phi0 ride one
    state; it passes over the atoms once per internal word and never at a
    leaf; and it never moves an atom or evaluates p_e at one.  An exact
    walk takes one scalar step per node."""
    sizes, calls = _atom_work(monkeypatch)
    _count_steps(monkeypatch, calls, scalar="_scalar_step")
    mu, n_max = small_measures["sys_b"], 6
    walk = cl.walk_cylinders(sys_b, n_max, mu)
    nodes = sum(cl.count_words(sys_b, n) for n in range(1, n_max + 1))
    internal = nodes - cl.count_words(sys_b, n_max)
    work = {"value_many": 0, "apply_many": 0, "step": nodes, "scalar": 0}
    assert calls == work
    assert sizes == [len(mu)] * internal  # sys B has one vertex

    # tables and K* read the shared walk without stepping again
    for n in range(1, 5):
        cl.build_table(walk, n)
    for window in (0, 1, 2):
        cl.kstar_estimate(sys_b, window, 4, walk)
    assert calls == work
    assert len(sizes) == internal

    cl.walk_cylinders(sys_c, n_max, cl.EXACT)
    assert calls["scalar"] == sum(cl.count_words(sys_c, n)
                                  for n in range(1, n_max + 1))
    assert calls["step"] == nodes and len(sizes) == internal


@pytest.mark.parametrize("name", ["sys_b", "sys_c"])
def test_walk_moves_only_the_start_vertex_atoms(name, request, small_measures,
                                               monkeypatch):
    """A Monte Carlo walk moves no atom, and each of its per-atom passes
    takes exactly the atoms of its word's start vertex, in the walk's
    order: start vertices in turn, one pass per internal word, none per
    leaf."""
    sys_, mu, n_max = request.getfixturevalue(name), small_measures[name], 5
    if name == "sys_c":  # both vertices hold 256 atoms: keep 100 of vertex 2's
        keep = (mu.vertices == 1) | (np.cumsum(mu.vertices == 2) <= 100)
        weights = mu.weights[keep]
        mu = cl.EmpiricalMeasure(vertices=mu.vertices[keep],
                                 points=mu.points[keep],
                                 weights=weights / weights.sum())
    sizes, calls = _atom_work(monkeypatch)
    cl.walk_cylinders(sys_, n_max, mu)
    atoms = {v.index: int(np.sum(mu.vertices == v.index))
             for v in sys_.vertices}
    assert len(set(atoms.values())) == len(atoms)  # the sizes tell them apart
    per_vertex = {v: [0] * (n_max + 1) for v in atoms}
    for n in range(1, n_max + 1):
        for w in cl.enumerate_words(sys_, n):
            per_vertex[sys_.edge(w[0]).source][n] += 1
    assert sizes == [atoms[v] for v in sorted(atoms)
                     for _ in range(sum(per_vertex[v][:n_max]))]
    assert calls == {"value_many": 0, "apply_many": 0,
                     "step": sum(map(sum, per_vertex.values()))}


def test_scalar_chain_moves_no_point_when_probabilities_are_constant(
        sys_a, sys_b, small_measures, monkeypatch):
    """phi0 and exact M read the edge constants alone when every probability
    is constant: on sys A no walk evaluates p_e at a point or moves one,
    whatever its chain measure.  On sys B a walk under mu_N reads phi0 off
    its atoms state and evaluates or moves no point; with no measure phi0
    evaluates p_e once per node of the word tree and moves its point below
    internal nodes only."""
    calls = _count_calls(monkeypatch, (cl.ProbabilityFunction, "value"),
                         (cl.AffineMap, "apply"))
    n_max = 6
    for measure in (cl.EXACT, None, small_measures["sys_a"]):
        cl.walk_cylinders(sys_a, n_max, measure)
        assert calls == {"value": 0, "apply": 0}

    cl.walk_cylinders(sys_b, n_max, small_measures["sys_b"])
    assert calls == {"value": 0, "apply": 0}
    cl.walk_cylinders(sys_b, n_max, None)
    nodes = sum(cl.count_words(sys_b, n) for n in range(1, n_max + 1))
    assert calls == {"value": nodes,
                     "apply": nodes - cl.count_words(sys_b, n_max)}


def test_a_base_walk_steps_no_word_outside_the_support(monkeypatch):
    """With no chain measure a walk steps only the words that start in the
    support set: on sys C with support [1] and affine probabilities on
    vertex 1, a depth-4 walk evaluates p_e at vertex 1's 30 tree nodes and
    moves the point below its 14 internal ones, not 60 and 28.  The words
    below vertex 2 read M = phi0 = +0.0, and every row is the tuple walk's
    by tobytes()."""
    cfg = sys_c_config()
    cfg["support_set"] = [1]
    cfg["edges"][0]["prob"] = {"family": "affine", "alpha": 0.5, "beta": [0.25]}
    cfg["edges"][1]["prob"] = {"family": "affine", "alpha": 0.5,
                               "beta": [-0.25]}
    sys_ = cl.validate_system(cfg)
    oracle = tuple_walk(sys_, 4, None)
    calls = _count_calls(monkeypatch, (cl.ProbabilityFunction, "value"),
                         (cl.AffineMap, "apply"))
    walk = cl.walk_cylinders(sys_, 4, None)
    assert calls == {"value": 30, "apply": 14}
    for n, (words, m_vals, phi_vals) in oracle.items():
        rows = walk.rows[n]
        assert rows.words == words
        assert rows.m_values.tobytes() == m_vals.tobytes()
        assert rows.phi0_values.tobytes() == phi_vals.tobytes()
        outside = [sys_.edge(w[0]).source == 2 for w in words]
        assert any(outside)
        for values in (rows.m_values, rows.phi0_values):
            assert not np.signbit(values).any()
            assert not values[outside].any()


def test_fold_roots_only_the_start_vertices_of_its_words(
        sys_c, small_measures, monkeypatch):
    """A fold past a walk's depth builds the root state of a vertex only
    when one of its words starts there, once per call whatever the number
    of such words; a walk to depth >= 1 roots every vertex."""
    chain, roots = cl.cylinders._chain, []

    def counting(sys_, measure):
        step, root = chain(sys_, measure)
        return step, lambda v: roots.append(v) or root(v)

    monkeypatch.setattr(cl.cylinders, "_chain", counting)
    mu = small_measures["sys_c"]
    for measure in (mu, cl.EXACT, None):
        roots.clear()
        walk = cl.walk_cylinders(sys_c, 1, measure)
        assert roots == [1, 2]
        roots.clear()
        assert list(walk.along([("c11",) * 3])) == [("c11",) * 3]
        assert roots == [1]
        roots.clear()
        walk.along([("c11", "c12"), ("c21", "c11"), ("c11",) * 3])
        assert roots == [1, 2]
    roots.clear()
    cl.phi0_cyl(sys_c, ("c21", "c11"))
    assert roots == [2]


def test_fold_steps_once_per_edge_of_each_word(sys_b, small_measures,
                                               monkeypatch):
    """Past its depth a walk folds each word on its own: one step per edge
    of the word, shared prefixes or not, and a pass over the atoms at every
    edge but the last; it reads each word bit for bit as a full walk does,
    and a table never reads folded rows."""
    mu, deep = small_measures["sys_b"], cl.enumerate_words(sys_b, 6)[::11]
    full = cl.walk_cylinders(sys_b, 6, mu).rows
    walk = cl.walk_cylinders(sys_b, 2, mu)
    words = sorted({w[:n] for w in deep for n in range(3, 7)})
    sizes, calls = _atom_work(monkeypatch)
    rows = walk.along(words)
    assert calls == {"value_many": 0, "apply_many": 0,
                     "step": sum(map(len, words))}
    assert sizes == [len(mu)] * sum(len(w) - 1 for w in words)
    assert walk.depth == 2 and sorted(walk.rows) == [1, 2]
    assert list(rows) == words
    for w, pair in rows.items():
        at = full[len(w)].words.index(w)
        for value, key in zip(pair, ("m_values", "phi0_values")):
            assert (np.float64(value).tobytes()
                    == getattr(full[len(w)], key)[at].tobytes())
    # a table never reads rows the walk did not complete
    assert (cl.build_table(walk, 4).m_values.tolist()
            == full[4].m_values.tolist())


def test_a_walk_peaks_below_32_bytes_per_word(sys_a):
    """Index rows hold a word in about 21 bytes: an int32 parent, a one-byte
    edge and two float64 values.  An exact walk of sys A to depth 16
    (131,070 words) peaks below 32 bytes per walked word under tracemalloc,
    the bound README states; rows of word tuples took about 300."""
    cl.walk_cylinders(sys_a, 3, cl.EXACT)
    words = sum(cl.count_words(sys_a, n) for n in range(1, 17))
    tracemalloc.start()
    try:
        walk = cl.walk_cylinders(sys_a, 16, cl.EXACT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(walk.rows[16]) == 65_536 and words == 131_070
    assert peak < 32 * words


def test_walk_respects_word_cap(sys_a, monkeypatch):
    monkeypatch.setattr(cl.cylinders, "WORD_CAP", 8)
    with pytest.raises(cl.DepthOverflow):
        cl.walk_cylinders(sys_a, 4, cl.EXACT)
    with pytest.raises(ValueError):
        cl.walk_cylinders(sys_a, 0, cl.EXACT)


# --- the Walk the readers take -----------------------------------------------

def _walks_made(monkeypatch) -> list[tuple]:
    """Record (depth, measure) of every walk_cylinders call made through the
    cylinders module, as Walk.to makes them."""
    made, original = [], cl.cylinders.walk_cylinders

    def recording(sys_, n_max, measure):
        made.append((n_max, measure))
        return original(sys_, n_max, measure)

    monkeypatch.setattr(cl.cylinders, "walk_cylinders", recording)
    return made


@pytest.mark.parametrize("name", ["sys_b", "sys_c"])
def test_each_reader_follows_its_walks_measure(name, request, small_measures,
                                               monkeypatch):
    """build_table and m_of_cylinder_set return the M of the walk they are
    given, under mu_N, EXACT (constant sys C) or no measure, and take no
    measure or rows of their own; a walk with no measure has no M, so both
    raise ValueError naming that, not a mass sum of 0.  phi_upper takes no
    measure either, and kstar_estimate refuses a walk of another system."""
    sys_ = request.getfixturevalue(name)
    other = request.getfixturevalue("sys_c" if name == "sys_b" else "sys_b")
    measures = [small_measures[name], None]
    if sys_.all_constant_probabilities:
        measures.append(cl.EXACT)
    q = cl.full_cylinder_set(sys_, 2)
    made = _walks_made(monkeypatch)
    for measure in measures:
        walk = cl.cylinders.walk_cylinders(sys_, 3, measure)
        assert walk.system is sys_ and walk.measure is measure
        if measure is None:
            assert not any(walk.rows[n].m_values.any() for n in (1, 2, 3))
            for read in (lambda: cl.build_table(walk, 2),
                         lambda: cl.m_of_cylinder_set(walk, q)):
                with pytest.raises(ValueError, match="chain measure"):
                    read()
            continue
        for n in (1, 2, 3):
            assert (cl.build_table(walk, n).m_values.tobytes()
                    == walk.rows[n].m_values.tobytes())
        assert cl.m_of_cylinder_set(walk, q) == math.fsum(
            walk.rows[2].m_values)
        assert (cl.kstar_estimate(sys_, 0, 3, walk)
                == cl.kl_n(cl.build_table(walk, 3)))
        with pytest.raises(ValueError, match="another system"):
            cl.kstar_estimate(other, 0, 3, walk)
    assert [n for n, _ in made] == [3] * len(measures)  # reads walk none
    for reader in (cl.build_table, cl.m_of_cylinder_set, cl.phi_upper):
        params = inspect.signature(reader).parameters
        assert "walk" in params
        assert not {"measure", "rows", "sys"} & set(params)


def test_readers_refuse_a_depth_below_1_as_the_walk_does(sys_b,
                                                         small_measures):
    """Walk.to refuses a depth below 1 with the walk's own ValueError, up
    to its depth as past it, so a table or K* window at depth 0 raises it
    too, not a KeyError."""
    walk = cl.walk_cylinders(sys_b, 2, small_measures["sys_b"])
    for read in (lambda: cl.walk_cylinders(sys_b, 0, walk.measure),
                 lambda: walk.to(0), lambda: walk.to(-1),
                 lambda: cl.build_table(walk, 0),
                 lambda: cl.kstar_estimate(sys_b, 1, 0, walk),
                 lambda: cl.kstar_estimate(sys_b, 0, 0, walk)):
        with pytest.raises(ValueError, match="^depth must be >= 1$"):
            read()


@pytest.mark.parametrize("name", ["sys_b", "sys_c"])
def test_walk_to_extends_a_shallow_walk_only(name, request, small_measures,
                                             monkeypatch):
    """Walk.to returns the walk itself, walking nothing, up to its depth,
    and past it one fresh walk under its own system and measure whose rows
    are those of a deep walk, bit for bit; a table past a walk's depth
    reads that walk."""
    sys_, mu = request.getfixturevalue(name), small_measures[name]
    deep = cl.walk_cylinders(sys_, 5, mu)
    made = _walks_made(monkeypatch)
    shallow = cl.walk_cylinders(sys_, 2, mu)
    made.clear()
    assert shallow.to(1) is shallow and shallow.to(2) is shallow
    assert made == []
    extended = shallow.to(5)
    assert made == [(5, mu)]
    assert extended.system is sys_ and extended.measure is mu
    assert extended.depth == 5 and sorted(extended.rows) == [1, 2, 3, 4, 5]
    for n in range(1, 6):
        assert extended.rows[n].words == deep.rows[n].words
        for key in ("m_values", "phi0_values"):
            assert (getattr(extended.rows[n], key).tobytes()
                    == getattr(deep.rows[n], key).tobytes())
    made.clear()
    assert (cl.build_table(shallow, 4).m_values.tobytes()
            == deep.rows[4].m_values.tobytes())
    assert made == [(4, mu)]


def test_walk_along_reads_what_it_holds_and_folds_the_rest(
        sys_c, small_measures, monkeypatch):
    """Walk.along returns {word: (M, phi0)} of the words asked for, in their
    order: those the walk holds are read from it, and the others come from
    one fold under its measure, which walks nothing and counts no word
    tree; an inadmissible word raises InadmissibleWord."""
    mu = small_measures["sys_c"]
    deep = cl.walk_cylinders(sys_c, 4, mu)
    walk = cl.walk_cylinders(sys_c, 2, mu)
    made, folds = _walks_made(monkeypatch), fold_calls(monkeypatch)
    counted, tree_counts = [], cl.cylinders._tree_counts
    monkeypatch.setattr(cl.cylinders, "_tree_counts",
                        lambda sys_, n: counted.append(n)
                        or tree_counts(sys_, n))
    words = [deep.rows[3].words[7], deep.rows[4].words[5],
             deep.rows[1].words[0], deep.rows[4].words[9]]
    rows = walk.along(words)
    assert folds == [[words[0], words[1], words[3]]]
    assert made == [] and counted == []
    assert list(rows) == words
    for i, key in enumerate(("m_values", "phi0_values")):
        expected = [getattr(deep.rows[len(w)], key)[
            deep.rows[len(w)].words.index(w)] for w in words]
        assert [rows[w][i] for w in words] == expected
    folds.clear()
    assert list(walk.along(words[2:3])) == words[2:3]
    assert folds == [] and made == []
    with pytest.raises(cl.InadmissibleWord):
        walk.along([("c11", "c21", "c11")])


# --- tables -----------------------------------------------------------------

def test_table_sys_a_all_unit_density(sys_a):
    table = table_of(sys_a, 4, cl.EXACT)
    assert len(table) == 16
    assert all(float(z) == 1.0 for z in table.z_values)
    assert all(float(lz) == 0.0 for lz in table.logz_values)


def test_table_sys_c_all_unit_density(sys_c):
    table = table_of(sys_c, 3, cl.EXACT)
    assert all(float(z) == 1.0 for z in table.z_values)


def test_table_sys_b_depth_2(sys_b, mu_b):
    table = table_of(sys_b, 2, mu_b)
    assert len(table) == 4
    assert abs(math.fsum(table.m_values) - 1.0) <= 1e-12
    assert np.max(np.abs(table.logz_values)) <= 2.0


@pytest.mark.parametrize("mode_fixture,depths", [
    ("sys_a", (3, 4)),
    ("sys_c", (2, 3)),
])
def test_kolmogorov_consistency_exact(mode_fixture, depths, request):
    sys_ = request.getfixturevalue(mode_fixture)
    shallow = table_of(sys_, depths[0], cl.EXACT)
    deep = table_of(sys_, depths[1], cl.EXACT)
    _check_consistency(sys_, shallow, deep, tol=1e-12)


def test_kolmogorov_consistency_mc(sys_b, mu_b):
    shallow = table_of(sys_b, 2, mu_b)
    deep = table_of(sys_b, 3, mu_b)
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
        table_of(sys_, 2, cl.EXACT)


def test_table_csv_round_trip(tmp_path, sys_b, mu_b):
    table = table_of(sys_b, 2, mu_b)
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
    and a -inf logZ; and a Monte Carlo table."""
    tables = [table_of(sys_a, n, cl.EXACT) for n in (1, 2, 3)]
    tables.append(table_of(sys_b, 3, cl.pushforward_measure(sys_b, 5)))
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


def test_table_csv_blocks_are_what_csv_writer_wrote(tmp_path):
    """At the real CSV_BLOCK, the same bytes as csv.writer for a table of
    fewer rows than a block and for one longer than a block, neither row
    count a multiple of it: exact tables of a vertex with three out-edges,
    3^3 and 3^8 rows."""
    cfg = sys_a_config()
    cfg["edges"] = [
        {"id": f"t{i}", "source": 1, "target": 1, "linear": [1 / 3],
         "offset": [i / 3], "prob": {"family": "constant", "alpha": alpha}}
        for i, alpha in enumerate((0.25, 0.25, 0.5))]
    walk = cl.walk_cylinders(cl.validate_system(cfg), 8, cl.EXACT)
    block = cl.simulate.CSV_BLOCK
    path = tmp_path / "table.csv"
    for n, rows in ((3, 27), (8, 6561)):
        table = cl.build_table(walk, n)
        assert len(table) == rows and rows % block
        assert (rows < block) == (n == 3)
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
        table = table_of(sys_, n, measure)
        assert abs(math.fsum(table.m_values) - 1.0) <= 1e-12 + n * 9.1e-13
    assert math.fsum(table.phi0_values) - 1.0 > 3e-12


def test_tables_refuse_sums_past_the_normalization_gap():
    """Rows whose masses or base measures sum to 1.01 still raise."""
    sys_ = cl.validate_system(_alpha_raised(sys_a_config))
    walk = cl.walk_cylinders(sys_, 2, cl.EXACT)
    raw = walk.rows[2]
    for key in ("m_values", "phi0_values"):
        rows = {2: dataclasses.replace(raw, **{key: getattr(raw, key) * 1.01})}
        with pytest.raises(cl.AbsoluteContinuityViolation, match="sum to"):
            cl.build_table(dataclasses.replace(walk, rows=rows), 2)


def test_cylinder_set_validation(sys_a):
    q = cl.cylinder_set(sys_a, [("e1", "e2"), ("e2", "e2")])
    assert q.depth == 2
    with pytest.raises(cl.InadmissibleWord):
        cl.cylinder_set(sys_a, [("e1",), ("e1", "e2")])  # mixed depth
    with pytest.raises(cl.InadmissibleWord):
        cl.cylinder_set(sys_a, [("e1",), ("e1",)])  # duplicate


def test_m_of_cylinder_set(sys_a):
    q = cl.full_cylinder_set(sys_a, 3)
    assert m_of(sys_a, q, cl.EXACT) == 1.0
