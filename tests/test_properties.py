"""Identities of the word-tree walk, the cover search, exact-mode K_n, the
pushforward measure and the coding map on random systems.

The strategy builds valid systems by construction: 1-3 vertices in R^k,
k in {1, 2}, square boxes of one side, a cycle through every vertex (so the
vertex chain is irreducible) plus an optional second out-edge per vertex,
constant or affine probabilities normalized by construction, and maps whose
row and column sums of |A| stay below a contraction rate of at most 0.9.
A draw may fix the probability family and take every vertex as the support
set.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import cmslab as cl
from cmslab import cli

from conftest import LOCAL_MODULES, local_modules
from oracles import (
    expected_running_max,
    fold_backward_orbit,
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


@_SETTINGS
@given(systems())
def test_walks_agree_on_random_systems(drawn):
    """The base walk (no chain measure) and the M walk read the same words
    and the same phi0 bit for bit; enumerate_words is the walk's word list;
    phi0 sums to 1 at every depth."""
    cfg, affine = drawn
    sys_ = cl.validate_system(cfg)
    assert sys_.contraction_rate <= 0.9
    measure = cl.pushforward_measure(sys_, 3) if affine else cl.EXACT
    base = cl.walk_cylinders(sys_, DEPTH, None)
    rows = cl.walk_cylinders(sys_, DEPTH, measure)
    for n in range(1, DEPTH + 1):
        assert base[n].words == rows[n].words
        assert base[n].phi0_values.tolist() == rows[n].phi0_values.tolist()
        assert not base[n].m_values.any()
        words = cl.enumerate_words(sys_, n)
        assert words == list(rows[n].words)
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
    rows = cl.walk_cylinders(sys_, depth, None)[depth]
    i = data.draw(st.integers(0, len(rows.words) - 1))
    word = rows.words[i]
    assert cl.phi0_cyl(sys_, word) == rows.phi0_values[i]
    q = cl.cylinder_set(sys_, [word])
    cost, candidate = cl.phi_upper(sys_, q, data.draw(st.integers(0, 2)),
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
    cost, candidate = cl.phi_upper(sys_, q, max_shift, max_depth)
    plain_cost, _, plain_exhaustive, _ = plain_cover_search(
        sys_, q, max_shift, max_depth, cl.cover.DEFAULT_BUDGET)
    assert cost <= math.fsum(cl.phi0_cyl(sys_, w) for w in q.words)
    if candidate.exhaustive and plain_exhaustive:
        assert abs(cost - plain_cost) <= 1e-12


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
        value = cl.kl_n(cl.build_table(sys_, depth, cl.EXACT))
        assert abs(value - expected) <= 1e-12
    for window in range(3):
        expected = expected_running_max(p, pi, g, window)
        for depth in range(1, 4):
            value = cl.kstar_estimate(sys_, window, depth, cl.EXACT)
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
    rows = cl.walk_cylinders(sys_, 3, mu)
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
    rows = cl.walk_cylinders(sys_, DEPTH, measure)
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
    m_q = cl.m_of_cylinder_set(sys_, q, measure)
    # both sides can be equal (factor 1, M = phi0) and then differ by
    # rounding: the run's consistency check allows COST_TOL
    assert m_q * report["corollary_factor"] <= cost + cl.cover.COST_TOL


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
