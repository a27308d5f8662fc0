"""Identities of the word-tree walk, the cover search, exact-mode K_n, the
pushforward measure and the coding map on random systems.

The strategy builds valid systems by construction: 1-3 vertices in R^k,
k in {1, 2}, square boxes of one side, a cycle through every vertex (so the
vertex chain is irreducible) plus an optional second out-edge per vertex,
constant or affine probabilities normalized by construction, and maps whose
row and column sums of |A| stay below a contraction rate of at most 0.9.
A draw may fix the probability family and take every vertex as the support
set.  A second strategy mutates such a config and a plan for it.
"""

from __future__ import annotations

import copy
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmslab as cl
from cmslab import cli

from conftest import (LOCAL_MODULES, cover_of, kstar_of, local_modules,
                      m_of, sys_c_config, table_of)
from oracles import (
    expected_running_max,
    fold_backward_orbit,
    folded_word_mass,
    masked_word_mass,
    plain_cover_search,
    stationary_via_eig,
)

DEPTH = 4


@st.composite
def systems(draw, affine=None, full_support=False):
    """(config, affine) of a valid system; see the module docstring.  The
    family is drawn unless `affine` fixes it."""
    k = draw(st.integers(1, 2))
    n = draw(st.integers(1, 3))
    if affine is None:
        affine = draw(st.booleans())
    side = draw(st.floats(1.0, 2.0))
    rate = draw(st.floats(0.1, 0.9))

    def vec(lo, hi):
        return np.array([draw(st.floats(lo, hi)) for _ in range(k)])

    vertices = []
    for i in range(n):
        lower = vec(-1.0, 1.0) + 5.0 * i  # boxes of side <= 2 never meet
        vertices.append({"index": i + 1, "lower": lower.tolist(),
                         "upper": (lower + side).tolist(),
                         "base_point": (lower + side * vec(0.0, 1.0)).tolist()})

    edges = []
    for i, v in enumerate(vertices):
        targets = [(i + 1) % n] + ([draw(st.integers(0, n - 1))]
                                   if draw(st.booleans()) else [])
        centre = np.array(v["lower"]) + side / 2.0
        if len(targets) == 1:
            probs = [(1.0, np.zeros(k))]
        else:
            alpha = draw(st.floats(0.2, 0.8))
            # |beta . (x - centre)| <= 0.1 on the box when affine
            beta = (0.2 / (k * side)) * vec(-1.0, 1.0) if affine else np.zeros(k)
            first = alpha - float(beta @ centre)
            probs = [(first, beta), (1.0 - first, -beta)]
        for j, (t, (a, b)) in enumerate(zip(targets, probs)):
            tgt = vertices[t]
            # row and column sums of |A| <= rate: spectral norm <= rate, and
            # the image half-width <= rate * side / 2
            linear = np.array([vec(-rate / k, rate / k) for _ in range(k)])
            slack = (1.0 - rate) * side / 4.0
            goal = np.array(tgt["lower"]) + side / 2.0 + vec(-slack, slack)
            prob = ({"family": "affine", "alpha": a, "beta": b.tolist()}
                    if affine else {"family": "constant", "alpha": a})
            edges.append({"id": f"v{i + 1}e{j}", "source": i + 1,
                          "target": tgt["index"],
                          "linear": linear.ravel().tolist(),
                          "offset": (goal - linear @ centre).tolist(),
                          "prob": prob})
    support = (list(range(1, n + 1)) if full_support else
               draw(st.lists(st.integers(1, n), min_size=1, unique=True)))
    return {"dimension": k, "vertices": vertices, "edges": edges,
            "support_set": support}, affine


_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                     database=None)


def test_draws_do_not_depend_on_the_tests_run_before():
    """Hypothesis draws some numbers from the constants of the local modules
    in sys.modules, so a derandomized property here would draw other
    examples after a test that loaded a new one.  conftest loads every
    module the tests use before any test runs, and none loads another."""
    assert local_modules() == LOCAL_MODULES


@settings(_SETTINGS, max_examples=200)
@given(systems())
def test_derived_tables_are_their_recomputation_on_random_systems(drawn):
    """What MarkovSystem derives at construction is, bit for bit, its
    recomputation from the config's numbers: the largest spectral norm of
    an edge map, A_e base(s) + b_e - base(t) per edge and its largest norm,
    the largest gradient norm, each vertex's normalization gap by
    box_range, the base points and out-degrees by vertex index and whether
    every probability is constant; and every array is read-only."""
    cfg, _ = drawn
    sys_ = cl.validate_system(cfg)
    k = cfg["dimension"]
    base = {v["index"]: np.array(v["base_point"]) for v in cfg["vertices"]}
    linear = {e["id"]: np.array(e["linear"]).reshape(k, k) for e in cfg["edges"]}
    beta = {e["id"]: np.array(e["prob"].get("beta", [0.0] * k))
            for e in cfg["edges"]}
    deltas = {e["id"]: linear[e["id"]] @ base[e["source"]]
              + np.array(e["offset"]) - base[e["target"]] for e in cfg["edges"]}
    assert sys_.contraction_rate == max(float(np.linalg.norm(a, 2))
                                        for a in linear.values())
    assert sys_.deltas.keys() == deltas.keys()
    assert all(sys_.deltas[i].tobytes() == d.tobytes() for i, d in deltas.items())
    assert sys_.max_displacement == max(float(np.linalg.norm(d))
                                        for d in deltas.values())
    assert sys_.max_gradient_norm == max(float(np.linalg.norm(b))
                                         for b in beta.values())
    assert sys_.all_constant_probabilities == (not any(b.any()
                                                       for b in beta.values()))
    gaps = []
    for v in cfg["vertices"]:
        out = sorted((e for e in cfg["edges"] if e["source"] == v["index"]),
                     key=lambda e: e["id"])
        lo, hi = cl.model.box_range(
            math.fsum(e["prob"]["alpha"] for e in out) - 1.0,
            np.sum([beta[e["id"]] for e in out], axis=0),
            np.array(v["lower"]), np.array(v["upper"]))
        gaps.append(max(-lo, hi))
        assert sys_.base_points[v["index"]].tobytes() == base[v["index"]].tobytes()
        assert sys_.out_degrees[v["index"]] == len(out)
    assert sys_.normalization_gap == max(gaps)
    assert sys_.base_points.shape == (len(cfg["vertices"]) + 1, k)
    for arr in (sys_.base_points, sys_.out_degrees, *sys_.deltas.values()):
        assert not arr.flags.writeable
    with pytest.raises(TypeError):
        sys_.deltas["new"] = np.zeros(k)


@_SETTINGS
@given(systems())
def test_walks_agree_on_random_systems(drawn):
    """The base walk (no chain measure), the mu_N walk of every draw and
    the exact walk of a constant draw read the same words and the same
    phi0 bit for bit, never -0.0; enumerate_words is the walk's word list;
    phi0 sums to 1 at every depth."""
    cfg, affine = drawn
    sys_ = cl.validate_system(cfg)
    assert sys_.contraction_rate <= 0.9
    base = cl.walk_cylinders(sys_, DEPTH, None).rows
    walks = [cl.walk_cylinders(sys_, DEPTH, cl.pushforward_measure(sys_, 3))]
    if not affine:
        walks.append(cl.walk_cylinders(sys_, DEPTH, cl.EXACT))
    walks = [walk.rows for walk in walks]
    for n in range(1, DEPTH + 1):
        assert not np.signbit(base[n].phi0_values).any()
        for rows in walks:
            assert base[n].words == rows[n].words
            assert (base[n].phi0_values.tobytes()
                    == rows[n].phi0_values.tobytes())
        assert not base[n].m_values.any()
        words = cl.enumerate_words(sys_, n)
        assert words == list(base[n].words)
        assert len(set(words)) == len(words) == cl.count_words(sys_, n)
        assert abs(math.fsum(base[n].phi0_values) - 1.0) <= 1e-12


@_SETTINGS
@given(systems(), st.data())
def test_one_word_cover_on_random_systems(drawn, data):
    """A one-word query costs at most its own cylinder's charge, phi0_cyl
    reads the walk's row, and the certificate re-verifies from JSON."""
    cfg, _ = drawn
    sys_ = cl.validate_system(cfg)
    depth = data.draw(st.integers(1, 3))
    rows = cl.walk_cylinders(sys_, depth, None).rows[depth]
    i = data.draw(st.integers(0, len(rows.words) - 1))
    word = rows.words[i]
    assert cl.phi0_cyl(sys_, word) == rows.phi0_values[i]
    q = cl.cylinder_set(sys_, [word])
    cost, candidate = cover_of(sys_, q, data.draw(st.integers(0, 2)),
                                   data.draw(st.integers(1, 3)))
    assert cost <= cl.phi0_cyl(sys_, word)
    cert = cl.certificate_dict(sys_, q, candidate)
    cl.verify_certificate_data(json.loads(json.dumps(cert)))


@_SETTINGS
@given(systems(), st.data())
def test_cover_search_matches_the_plain_search_on_random_systems(drawn, data):
    """On a whole-space query, the search with its memo and per-word bound
    costs what the plain branch and bound costs wherever both finish, and
    never more than the trivial cover."""
    cfg, _ = drawn
    sys_ = cl.validate_system(cfg)
    q = cl.full_cylinder_set(sys_, data.draw(st.integers(1, 2)))
    max_shift, max_depth = data.draw(st.integers(0, 1)), data.draw(st.integers(1, 2))
    cost, candidate = cover_of(sys_, q, max_shift, max_depth)
    plain_cost, _, plain_exhaustive, _ = plain_cover_search(
        sys_, q, max_shift, max_depth, cl.cover.DEFAULT_BUDGET)
    assert cost <= math.fsum(cl.phi0_cyl(sys_, w) for w in q.words)
    if candidate.exhaustive and plain_exhaustive:
        assert abs(cost - plain_cost) <= 1e-12


@settings(_SETTINGS, max_examples=60)
@given(systems(), st.data())
def test_cover_search_on_walk_rows_is_the_search_alone_on_random_systems(
        drawn, data):
    """phi_upper given a walk under the run's measure (exact mode for
    constant probabilities, mu_N for affine ones), which follows the query
    words as the run's walk does, returns what it returns on a base walk of
    its own to the window's depth: cost, pieces, nodes and exhaustive, bit
    for bit, whether the walk reaches the window's depth and holds every
    word charged or not."""
    cfg, affine = drawn
    sys_ = cl.validate_system(cfg)
    measure = cl.pushforward_measure(sys_, 3) if affine else cl.EXACT
    depth = data.draw(st.integers(1, 3))
    if data.draw(st.booleans()):
        q = cl.full_cylinder_set(sys_, min(depth, 2))
    else:
        q = cl.cylinder_set(sys_, data.draw(st.lists(
            st.sampled_from(cl.enumerate_words(sys_, depth)), min_size=1,
            max_size=3, unique=True)))
    walk = cl.walk_cylinders(sys_, data.draw(st.integers(1, 4)), measure,
                             along=q.words)
    max_shift, max_depth = data.draw(st.integers(0, 2)), data.draw(st.integers(1, 3))
    cost, candidate = cl.phi_upper(walk, q, max_shift, max_depth)
    alone, expected = cover_of(sys_, q, max_shift, max_depth)
    assert cost.hex() == alone.hex()
    assert candidate.cost.hex() == expected.cost.hex()
    assert candidate == expected


@settings(_SETTINGS, max_examples=50)
@given(systems(affine=False, full_support=True))
def test_exact_kl_n_is_the_closed_form_on_random_systems(drawn):
    """With constant probabilities and every vertex in the support set,
    Z = |S| pi(start), so exact-mode K_n = E[g(V_0)] at every depth, with
    g(v) = log(|S| pi(v)) and V_j the stationary vertex chain; a K* word
    of window w scores its shifts' start vertices V_0..V_w, so K*(w) =
    E[max(g(V_0), ..., g(V_w))] at every depth."""
    cfg, _ = drawn
    sys_ = cl.validate_system(cfg)
    n = len(cfg["vertices"])
    p = np.zeros((n, n))
    for e in cfg["edges"]:  # parallel edges add up
        p[e["source"] - 1, e["target"] - 1] += e["prob"]["alpha"]
    pi = stationary_via_eig(p)
    g = np.log(n * pi)
    expected = math.fsum(float(v) * math.log(n * float(v)) for v in pi)
    for depth in range(1, DEPTH + 1):
        value = cl.kl_n(table_of(sys_, depth, cl.EXACT))
        assert abs(value - expected) <= 1e-12
    for window in range(3):
        expected = expected_running_max(p, pi, g, window)
        for depth in range(1, 4):
            value = kstar_of(sys_, window, depth, cl.EXACT)
            assert abs(value - expected) <= 1e-12


@settings(_SETTINGS, max_examples=50)
@given(systems(affine=False))
def test_pushforward_mass_is_the_vertex_law_on_random_systems(drawn):
    """With constant probabilities mu_N's vertex law is nu_N = uniform_S P^N,
    so M of a word from s under mu_N is nu_N(s) times its edge constants."""
    cfg, _ = drawn
    sys_ = cl.validate_system(cfg)
    n = len(cfg["vertices"])
    p = np.zeros((n, n))
    for e in cfg["edges"]:
        p[e["source"] - 1, e["target"] - 1] += e["prob"]["alpha"]
    mu = cl.pushforward_measure(sys_)
    start = np.zeros(n)
    start[[v - 1 for v in cfg["support_set"]]] = 1.0 / len(cfg["support_set"])
    law = start @ np.linalg.matrix_power(p, mu.levels)
    rows = cl.walk_cylinders(sys_, 3, mu).rows
    for depth in (1, 2, 3):
        for word, m in zip(rows[depth].words, rows[depth].m_values.tolist()):
            edges = [sys_.edge(eid) for eid in word]
            expected = law[edges[0].source - 1] * math.prod(
                e.prob.alpha for e in edges)
            assert abs(m - expected) <= 1e-12


@settings(_SETTINGS, max_examples=80)
@given(systems(full_support=True), st.data())
def test_north_star_identities_on_random_systems(drawn, data):
    """M and phi0 are Kolmogorov consistent at depths 1-3, K* at window 0
    is K_n bit for bit and never falls as the window grows, every pass flag
    of a run holds, and the corollary lower bound of a drawn word stays at
    or below its cover cost; exact mode for constant probabilities, the
    pushforward measure mu_N for affine ones, as `run` uses them, at the
    default atom cap."""
    cfg, affine = drawn
    sys_ = cl.validate_system(cfg)
    plan = dict(mode="monte_carlo" if affine else "exact", depths=[1, 2, 3],
                kstar_windows=[0, 1, 2], kstar_depth=2, cover_window=1,
                cover_depth=2)
    # the measure the run's tables use
    measure = cl.pushforward_measure(sys_) if affine else cl.EXACT
    rows = cl.walk_cylinders(sys_, DEPTH, measure).rows
    for key in ("m_values", "phi0_values"):
        assert abs(math.fsum(getattr(rows[1], key)) - 1.0) <= 1e-12
        for n in range(1, DEPTH):
            children: dict[tuple, list[float]] = {}
            for w, value in zip(rows[n + 1].words, getattr(rows[n + 1], key)):
                children.setdefault(w[:-1], []).append(float(value))
            for w, value in zip(rows[n].words, getattr(rows[n], key)):
                assert abs(math.fsum(children[w]) - value) <= 1e-12 * value

    depth = data.draw(st.integers(1, 3))
    word = data.draw(st.sampled_from(rows[depth].words))
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "sys.json"
        config.write_text(json.dumps(cfg))
        out = Path(tmp) / "out"
        assert cli.run(cli.ExperimentPlan(
            config_path=str(config), output_dir=str(out),
            queries=[{"words": [".".join(word)]}], **plan)) == 0
        report = json.loads((out / "bounds.json").read_text())
        cost = json.loads((out / "covers" / "query_0.json").read_text())["cost"]
    assert report["pass_flags"] and all(report["pass_flags"].values())
    k_n = {n: value for n, value, _ in report["k_n_series"]}
    kstar = [value for _, _, value, _ in sorted(report["kstar_estimates"])]
    assert kstar[0] == k_n[2]
    assert all(b >= a - 1e-12 for a, b in zip(kstar, kstar[1:]))
    q = cl.cylinder_set(sys_, [word])
    m_q = m_of(sys_, q, measure)
    # both sides can be equal (factor 1, M = phi0) and then differ by
    # rounding: the run's consistency check allows COST_TOL
    assert m_q * report["corollary_factor"] <= cost + cl.cover.COST_TOL


@settings(_SETTINGS, max_examples=80)
@given(systems(full_support=True))
def test_start_vertex_mass_is_the_masked_sum_on_random_systems(drawn):
    """The walk roots each word at its start vertex's atoms alone; its M
    stays within 1e-13 relative of the sum over every atom of mu_N, with
    the atoms of other vertices masked to 0, at depths 1-4."""
    cfg, _ = drawn
    sys_ = cl.validate_system(cfg)
    measure = cl.pushforward_measure(sys_)
    rows = cl.walk_cylinders(sys_, DEPTH, measure).rows
    for n in range(1, DEPTH + 1):
        for word, m in zip(rows[n].words, rows[n].m_values.tolist()):
            masked = masked_word_mass(sys_, word, measure)
            assert abs(m - masked) <= 1e-13 * masked


@settings(_SETTINGS, max_examples=80)
@given(systems(affine=True))
def test_walk_mass_is_the_moved_atoms_fold_on_random_systems(drawn):
    """The walk reads each word's M from first moments of atoms that never
    move; it stays within 1e-12 relative of the fold that moves the start
    vertex's atoms by each edge map and multiplies in p_e at them, at
    depths 1-4, with place-dependent probabilities."""
    cfg, _ = drawn
    sys_ = cl.validate_system(cfg)
    measure = cl.pushforward_measure(sys_)
    rows = cl.walk_cylinders(sys_, DEPTH, measure).rows
    for n in range(1, DEPTH + 1):
        for word, m in zip(rows[n].words, rows[n].m_values.tolist()):
            folded = folded_word_mass(sys_, word, measure)
            assert abs(m - folded) <= 1e-12 * folded


@settings(_SETTINGS, max_examples=40)
@given(systems(), st.data())
def test_backward_orbit_matches_the_fold_on_random_systems(drawn, data):
    """The telescoped orbit of a random admissible past of depth 1-64 lies
    within rounding of every truncation folded afresh, and its coding point
    passes the Cauchy check."""
    cfg, _ = drawn
    sys_ = cl.validate_system(cfg)
    vertex = data.draw(st.sampled_from([v.index for v in sys_.vertices]))
    past = []
    for _ in range(data.draw(st.integers(1, 64))):
        e = data.draw(st.sampled_from(
            [e for e in sys_.edges if e.target == vertex]))
        past.insert(0, e.id)
        vertex = e.source
    orbit = cl.backward_orbit(sys_, past)
    reference = fold_backward_orbit(sys_, past)
    scale = max(1.0, sys_.max_displacement,
                float(np.max(np.abs(reference))))
    assert len(orbit) == len(reference) == len(past)
    for x, ref in zip(orbit, reference):
        assert float(np.max(np.abs(x - ref))) <= 1e-12 * scale
    res = cl.coding_point(sys_, past)  # passes its Cauchy check
    assert all(np.array_equal(x, y) for x, y in zip(res.orbit, orbit))


@settings(_SETTINGS, max_examples=100)
@given(systems(full_support=True), st.data())
def test_validate_decides_every_walked_length_on_random_systems(drawn, data):
    """With the word cap at the words of a drawn length L, a run whose table
    depths, whole-space depths and K* lengths reach L + 1, in either mode,
    gets past validate only when every one of them fits the cap, and no
    later stage fails with DepthOverflow or ExactModeUnavailable."""
    cfg, affine = drawn
    sys_ = cl.validate_system(cfg)
    length = data.draw(st.integers(1, 4))
    near = st.integers(1, length + 1)
    kstar_depth = data.draw(near)
    plan = dict(
        mode=data.draw(st.sampled_from(["monte_carlo"] * 3 + ["exact"]
                                       if affine else ["exact", "monte_carlo"])),
        depths=data.draw(st.lists(near, min_size=1, max_size=2)),
        kstar_depth=kstar_depth,
        kstar_windows=data.draw(st.lists(
            st.integers(0, length + 1 - kstar_depth), max_size=3)),
        queries=[{"whole_space_depth": n}
                 for n in data.draw(st.lists(near, max_size=1))],
        # a cover window of the query's own words: cover._window's separate
        # cap on window words never binds
        cover_window=0, cover_depth=1, cover_budget=50)
    walked = [*plan["depths"], *(q["whole_space_depth"] for q in plan["queries"]),
              *(kstar_depth + w for w in plan["kstar_windows"])]
    cap = cl.count_words(sys_, length)
    over = any(cl.count_words(sys_, n) > cap for n in walked)
    with (mock.patch.object(cl.cylinders, "WORD_CAP", cap),
          tempfile.TemporaryDirectory() as tmp):
        config = Path(tmp) / "sys.json"
        config.write_text(json.dumps(cfg))
        out = Path(tmp) / "out"
        cli.run(cli.ExperimentPlan(config_path=str(config),
                                   output_dir=str(out), **plan))
        failure = json.loads((out / "MANIFEST.json").read_text()).get(
            "failure", {"stage": None, "error": None})
    if failure["stage"] != "validate":
        assert not over
        assert failure["error"] not in ("DepthOverflow", "ExactModeUnavailable")


# what a mutation writes: numbers outside every field's range (negative,
# zero, fractional, huge or not finite), integers past every cap on depths,
# windows, budgets, dimensions and vertex indices, and values of another
# JSON type
_OUT_OF_RANGE = [-1, 0, -0.5, 0.5, 1.5, -1e308, 1e308,
                 math.nan, math.inf, -math.inf]
_HUGE = [10 ** 6, 10 ** 8, 2 ** 63, 10 ** 30]
_OTHER_TYPES = [None, True, "x", "", [], {}, [1.0], {"x": 1}]


def _paths(tree, path=()):
    """The path of every value in a JSON tree, each after the paths inside
    it, so the root's () comes last and is seldom drawn."""
    items = (tree.items() if isinstance(tree, dict)
             else enumerate(tree) if isinstance(tree, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))
    yield path


@st.composite
def mutated(draw, tree):
    """A copy of a JSON tree after 1-3 mutations, each at a drawn value: drop
    it from its object or array, retype it, nest it in a list, or, when it
    is a number, push it out of range: an integer, half the time, to a huge
    one."""
    tree = copy.deepcopy(tree)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(tree))))
        kind = draw(st.sampled_from(["drop", "retype", "nest", "range"]))
        value = tree
        for key in path:
            value = value[key]
        if kind == "nest":
            new = [value]
        elif (kind == "range" and isinstance(value, (int, float))
              and not isinstance(value, bool)):
            huge = isinstance(value, int) and draw(st.booleans())
            new = draw(st.sampled_from(_HUGE if huge else _OUT_OF_RANGE))
        else:
            new = copy.deepcopy(draw(st.sampled_from(_OTHER_TYPES)))
        if not path:
            tree = new
            continue
        parent = tree
        for key in path[:-1]:
            parent = parent[key]
        if kind == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = new
    return tree


def _plan(affine: bool, word: str) -> dict:
    return {"config_path": "system.json",
            "mode": "monte_carlo" if affine else "exact",
            "seed": 0, "mc_samples": 1, "burn_in": 0,
            "depths": [1, 2], "kstar_windows": [0, 1], "kstar_depth": 2,
            "cover_window": 1, "cover_depth": 2, "cover_budget": 100,
            "queries": [{"words": [word]}, {"whole_space_depth": 2}],
            "output_dir": "out"}


@st.composite
def configs_and_plans(draw):
    """(valid config, config, plan): a drawn system's config and a plan for
    it, one or both of them mutated."""
    cfg, affine = draw(systems())
    plan = _plan(affine, draw(st.sampled_from(cfg["edges"]))["id"])
    which = draw(st.sampled_from(["config", "plan", "both"]))
    return (cfg,
            draw(mutated(cfg)) if which != "plan" else cfg,
            draw(mutated(plan)) if which != "config" else plan)


@settings(_SETTINGS, max_examples=300)
@given(configs_and_plans())
def test_mutated_configs_and_plans_end_in_a_cms_error(drawn):
    """validate_system and plan validation either accept a mutated config or
    plan or raise a CMSError, never another exception.  The plan is checked
    against the unmutated system, so that a broken config does not hide
    it."""
    valid, config, plan = drawn
    try:
        cl.validate_system(config)
    except cl.CMSError:
        pass
    system = cl.validate_system(valid)
    try:
        cli.ExperimentPlan.from_dict(plan).validate(system)
    except cl.CMSError:
        pass


def _set(tree, path, value):
    tree = copy.deepcopy(tree)
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return tree


def test_huge_integers_in_each_integer_field_end_in_a_cms_error():
    """Each huge integer the mutations draw, in each integer field of sys
    C's config and of a plan for it: a config refuses it, a plan field that
    sets a walked depth raises DepthOverflow, and the budget and the unread
    fields accept it."""
    cfg = sys_c_config()
    system = cl.validate_system(cfg)
    plan = _plan(False, "c11")
    walked = [("depths", 0), ("kstar_windows", 0), ("kstar_depth",),
              ("cover_window",), ("cover_depth",),
              ("queries", 1, "whole_space_depth")]
    accepted = [("seed",), ("mc_samples",), ("burn_in",), ("cover_budget",)]
    for value in _HUGE:
        for path in [("dimension",), ("vertices", 0, "index"),
                     ("edges", 0, "source"), ("edges", 0, "target"),
                     ("support_set", 0)]:
            with pytest.raises((cl.ConfigError, cl.ValidationError)):
                cl.validate_system(_set(cfg, path, value))
        for path in walked:
            with pytest.raises(cl.DepthOverflow):
                cli.ExperimentPlan.from_dict(
                    _set(plan, path, value)).validate(system)
        for path in accepted:
            cli.ExperimentPlan.from_dict(_set(plan, path, value)).validate(system)
