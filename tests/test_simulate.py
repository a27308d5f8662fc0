from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from scipy import stats

import cmslab as cl

from conftest import sys_a_config, sys_c_config, table_of
from oracles import (binomial_sigma, chain_contraction, chain_samples,
                     chain_step, csv_writer_text, pushforward_atoms)
from test_integration_2d import planar_config


# --- the chain oracle: the sampled chain the pushforward is checked against --

class ForcedRng:
    """Duck-typed generator returning a fixed uniform draw."""

    def __init__(self, value: float):
        self.value = value

    def random(self) -> float:
        return self.value


def test_step_forces_second_edge(sys_a):
    edge, (vertex, x) = chain_step(sys_a, (1, np.array([0.0])), ForcedRng(0.75))
    assert edge.id == "e2"
    assert vertex == 1
    assert float(x[0]) == 0.5


def test_step_sys_c_cross_edge(sys_c):
    edge, (vertex, x) = chain_step(sys_c, (1, np.array([0.0])), ForcedRng(0.75))
    assert edge.id == "c12"
    assert vertex == 2
    assert float(x[0]) == 2.0


def test_step_frequencies_match_place_dependent_probabilities(sys_b):
    # at x = 1 the probabilities are (2/3, 1/3)
    rng = np.random.default_rng(314)
    n = 100_000
    state = (1, np.array([1.0]))
    hits = sum(chain_step(sys_b, state, rng)[0].id == "e1" for _ in range(n))
    p = 2.0 / 3.0
    assert abs(hits / n - p) <= 3.0 * binomial_sigma(p, n)


def test_invariant_mean_and_uniformity(mu_a):
    # the halving system with a fair coin leaves Lebesgue measure invariant;
    # mu_N's atoms are the dyadic points of level N, of equal weight
    mean = float(mu_a.mean_point()[0])
    assert abs(mean - 0.5) <= 0.02
    counts, _ = np.histogram(mu_a.points[:, 0], bins=20, range=(0.0, 1.0))
    chi2 = stats.chisquare(counts)
    assert chi2.pvalue > 1e-4


def _assert_atoms_in_regions(sys_, mu) -> None:
    """Every atom has the system's k coordinates and lies in its vertex's
    region."""
    assert mu.points.shape == (len(mu), sys_.dimension)
    for v, point in zip(mu.vertices.tolist(), mu.points):
        assert sys_.vertex(v).contains(point)


def test_samples_stay_in_regions(sys_c, mu_c):
    _assert_atoms_in_regions(sys_c, mu_c)


def _walk(sys_, n_steps: int, seed: int) -> list[str]:
    """Edge ids of an n-step chain path from vertex 1's base point, checking
    that each edge leaves the current vertex and each point lies in its
    region."""
    rng = np.random.default_rng(seed)
    state = (1, sys_.base_point(1))
    word = []
    for _ in range(n_steps):
        edge, next_state = chain_step(sys_, state, rng)
        assert edge.source == state[0]
        assert sys_.vertex(next_state[0]).contains(next_state[1])
        word.append(edge.id)
        state = next_state
    return word


def test_trajectory_is_admissible(sys_c):
    word = _walk(sys_c, 500, seed=11)
    assert len(word) == 500
    assert len(sys_c.require_admissible(word)) == 500


def test_trajectory_rejects_broken_path(sys_c):
    word = list(cl.enumerate_words(sys_c, 5)[11])
    # splice in an edge that leaves the wrong vertex after word[0]
    wrong = next(e.id for e in sys_c.edges
                 if e.source != sys_c.edge(word[0]).target)
    with pytest.raises(cl.InadmissibleWord):
        sys_c.require_admissible([word[0], wrong] + word[1:])


def test_measure_weight_validation():
    with pytest.raises(cl.ValidationError):
        cl.EmpiricalMeasure(vertices=[1, 1], points=[[0.0], [0.5]],
                            weights=[0.5, 0.6])
    with pytest.raises(cl.ValidationError):
        cl.EmpiricalMeasure(vertices=[1], points=[[0.0]], weights=[-1.0])
    with pytest.raises(cl.ValidationError, match="mismatched lengths"):
        cl.EmpiricalMeasure(vertices=[1, 1], points=[[0.0]], weights=[0.5, 0.5])


@pytest.mark.parametrize("make_config", [sys_a_config, sys_c_config,
                                         planar_config])
def test_measure_csv_is_what_csv_writer_wrote(make_config, tmp_path,
                                             monkeypatch):
    """The same bytes as csv.writer with repr(float(x)) per cell: header,
    CRLF line ends, unequal weights, and 0.0 and -0.0 in one block, across
    blocks of 3, 4 and 5 rows.  Sys A's atoms weigh the same, so its
    weights repeat within and across blocks; its 2 atoms at one level are
    fewer than a block, and its 8 and 64 at three and six a multiple of 4
    and not of 3 or 5."""
    sys_ = cl.validate_system(make_config())
    k = sys_.dimension
    path = tmp_path / "mu.csv"
    for levels in (1, 3, 6):
        mu = cl.pushforward_measure(sys_, levels)
        points = mu.points.copy()
        points[0], points[1] = -0.0, 0.0
        mu = cl.EmpiricalMeasure(vertices=mu.vertices, points=points,
                                 weights=mu.weights)
        expected = csv_writer_text(
            ["vertex", *(f"x_{i + 1}" for i in range(k)), "weight"],
            ([int(v), *p, w] for v, p, w in zip(mu.vertices, mu.points,
                                                mu.weights)))
        for block in (3, 4, 5):
            monkeypatch.setattr(cl.simulate, "CSV_BLOCK", block)
            mu.to_csv(path)
            with open(path, newline="") as fh:
                assert fh.read() == expected


# --- the pushforward measure mu_N -------------------------------------------

def _two_class_config() -> dict:
    """Vertex 1 leaks into two closed classes, {2} and {3}; S = {1, 2}."""
    def halving(eid, v, offset, alpha):
        return {"id": eid, "source": v, "target": v, "linear": [0.5],
                "offset": [offset], "prob": {"family": "constant",
                                             "alpha": alpha}}

    def into(eid, target, alpha):
        return {"id": eid, "source": 1, "target": target, "linear": [0.5],
                "offset": [2.0 * (target - 1)],
                "prob": {"family": "constant", "alpha": alpha}}

    return {
        "dimension": 1,
        "vertices": [{"index": v, "lower": [2.0 * (v - 1)],
                      "upper": [2.0 * v - 1.0], "base_point": [2.0 * (v - 1)]}
                     for v in (1, 2, 3)],
        "edges": [halving("s1", 1, 0.0, 0.5), into("d2", 2, 0.3),
                  into("d3", 3, 0.2),
                  halving("a2", 2, 1.0, 0.5), halving("b2", 2, 1.5, 0.5),
                  halving("a3", 3, 2.0, 0.5), halving("b3", 3, 2.5, 0.5)],
        "support_set": [1, 2],
    }


@pytest.mark.parametrize("make_config", [sys_c_config, planar_config,
                                         _two_class_config])
def test_pushforward_is_the_path_fold(make_config):
    """mu_N's atoms are the length-N paths from the support base points,
    each weighted by its path probability, as folding every path alone
    gives them."""
    sys_ = cl.validate_system(make_config())
    for levels in range(5):
        mu = cl.pushforward_measure(sys_, levels)
        atoms = sorted(zip(mu.vertices.tolist(), map(tuple, mu.points.tolist()),
                           mu.weights.tolist()))
        reference = pushforward_atoms(sys_, levels)
        assert mu.levels == levels and len(atoms) == len(reference)
        for (v, x, w), (rv, rx, rw) in zip(atoms, reference):
            assert v == rv
            assert np.allclose(x, rx, rtol=0.0, atol=1e-15)
            assert abs(w - rw) <= 1e-15 * rw
        assert abs(math.fsum(mu.weights) - 1.0) <= 1e-15
        _assert_atoms_in_regions(sys_, mu)


@pytest.mark.parametrize("make_config", [sys_c_config, planar_config,
                                         _two_class_config])
def test_pushforward_depth_fills_the_atom_cap(make_config):
    """By default N is the deepest level whose atoms times the dimension
    stay within ATOM_CAP; the build is deterministic."""
    sys_ = cl.validate_system(make_config())
    mu = cl.pushforward_measure(sys_)
    k = sys_.dimension
    assert len(mu) * k <= cl.simulate.ATOM_CAP
    assert len(cl.pushforward_measure(sys_, mu.levels + 1)) * k > cl.simulate.ATOM_CAP
    again = cl.pushforward_measure(sys_)
    for name in ("vertices", "points", "weights"):
        assert np.array_equal(getattr(mu, name), getattr(again, name))


def test_pushforward_of_a_system_that_never_branches_stops():
    cfg = {"dimension": 1,
           "vertices": [{"index": 1, "lower": [0.0], "upper": [1.0],
                         "base_point": [0.0]}],
           "edges": [{"id": "e", "source": 1, "target": 1, "linear": [0.5],
                      "offset": [0.5],
                      "prob": {"family": "constant", "alpha": 1.0}}]}
    mu = cl.pushforward_measure(cl.validate_system(cfg))
    assert (mu.levels, len(mu)) == (cl.simulate.LEVEL_CAP, 1)
    assert float(mu.points[0, 0]) == 1.0  # the fixed point of x/2 + 1/2


def test_pushforward_drops_atoms_of_zero_weight():
    """A path whose probability underflows to 0 leaves no atom."""
    cfg = sys_a_config()
    cfg["edges"][0]["prob"]["alpha"] = 1e-200
    cfg["edges"][1]["prob"]["alpha"] = 1.0 - 1e-200
    sys_ = cl.validate_system(cfg)
    mu = cl.pushforward_measure(sys_, 2)
    weights = [w for _, _, w in pushforward_atoms(sys_, 2)]
    assert weights.count(0.0) == 1 and len(mu) == 3
    assert np.all(mu.weights > 0.0) and np.all(mu.points[:, 0] > 0.0)


def test_pushforward_averages_carry_no_stderr(sys_b):
    """An average over mu_N is the plain weighted sum of its atoms: one
    float, no error attached."""
    mu = cl.pushforward_measure(sys_b, 4)
    values = mu.points[:, 0]
    assert mu.average(values) == float(mu.weights @ values)
    assert type(mu.average(values)) is float
    assert type(cl.estimate_c_hat(sys_b, mu)) is float
    with pytest.raises(ValueError, match="levels"):
        cl.pushforward_measure(sys_b, -1)


def test_pushforward_vertex_law_on_a_reducible_chain():
    """Two closed classes: mu_N starts uniform on S, so its vertex law is
    uniform_S P^N, which splits its mass between both classes; a chain
    started at min(S) settles in one of them."""
    sys_ = cl.validate_system(_two_class_config())
    p = np.zeros((3, 3))
    for e in sys_.edges:
        p[e.source - 1, e.target - 1] += e.prob.alpha
    mu = cl.pushforward_measure(sys_)
    law = np.array([0.5, 0.5, 0.0]) @ np.linalg.matrix_power(p, mu.levels)
    got = np.bincount(mu.vertices, weights=mu.weights, minlength=4)[1:]
    assert np.allclose(got, law, rtol=0.0, atol=1e-12)
    assert got[1] > 0.5 and got[2] > 0.05


def _kl_kstar_c_hat(sys_, measure) -> tuple[float, float, float]:
    walk = cl.walk_cylinders(sys_, 3, measure)
    return (cl.kl_n(cl.build_table(walk, 2)),
            cl.kstar_estimate(sys_, 1, 2, walk),
            cl.estimate_c_hat(sys_, measure))


def _chain_measure(sys_, seed: int) -> cl.EmpiricalMeasure:
    verts, pts = chain_samples(sys_, 20_000, burn_in=1000, seed=seed)
    return cl.EmpiricalMeasure(vertices=verts, points=pts,
                               weights=np.full(len(verts), 1.0 / len(verts)))


def test_pushforward_agrees_with_the_chain(sys_b):
    """K_2, K*(window 1) at depth 2 and c_hat under mu_N lie within three
    standard errors of the mean of eight 20k-sample chains; the standard
    error is the chains' own spread."""
    chains = np.array([_kl_kstar_c_hat(sys_b, _chain_measure(sys_b, seed))
                       for seed in range(8)])
    mean = chains.mean(axis=0)
    stderr = chains.std(axis=0, ddof=1) / math.sqrt(len(chains))
    pushed = np.array(_kl_kstar_c_hat(sys_b, cl.pushforward_measure(sys_b)))
    assert np.all(np.abs(pushed - mean) <= 3.0 * stderr), (pushed, mean, stderr)


def test_pushforward_truncation_gap_on_sys_b(sys_b):
    """c_hat and K_4 move by less than 1e-6 from mu_{N-2} to mu_N."""
    mu = cl.pushforward_measure(sys_b)
    coarse = cl.pushforward_measure(sys_b, mu.levels - 2)
    gap = cl.simulate.c_hat_gap(sys_b, mu)
    assert gap == abs(cl.estimate_c_hat(sys_b, mu)
                      - cl.estimate_c_hat(sys_b, coarse))
    assert gap < 1e-6
    k_4 = [cl.kl_n(table_of(sys_b, 4, m)) for m in (mu, coarse)]
    assert abs(k_4[0] - k_4[1]) < 1e-6
    assert cl.simulate.c_hat_gap(sys_b, cl.pushforward_measure(sys_b, 1)) is None


# --- average contraction ----------------------------------------------------

def test_average_contraction_first_step_sys_a(sys_a, mu_a):
    rows = cl.check_average_contraction(sys_a, mu_a, i_max=3)
    assert [r.i for r in rows] == [1, 2, 3]
    for row in rows:
        assert row.estimate <= row.bound * (1.0 + 1e-12)


def test_average_contraction_decay_sys_b(sys_b, mu_b):
    rows = cl.check_average_contraction(sys_b, mu_b, i_max=8)
    a = sys_b.contraction_rate
    for row in rows:
        assert row.estimate <= row.bound * (1.0 + 1e-12)
    for r1, r2 in zip(rows, rows[1:]):
        assert r2.estimate <= a * r1.estimate * (1.0 + 1e-12)


@pytest.mark.parametrize("name", ["sys_a", "sys_b"])
def test_average_contraction_is_a_to_the_i_on_halving_maps(name, request):
    """Both maps of sys A and sys B halve every distance, so each pair
    (atom, base point) closes by exactly 1/2 per step, whatever edges the
    probabilities pick: the estimate is a^i c_hat."""
    sys_ = request.getfixturevalue(name)
    mu = request.getfixturevalue(name.replace("sys", "mu"))
    rows = cl.check_average_contraction(sys_, mu, i_max=8)
    c_hat = cl.estimate_c_hat(sys_, mu)
    for row in rows:
        assert row.bound == 0.5 ** row.i * c_hat
        assert abs(row.estimate - row.bound) <= 1e-12 * row.bound


def test_average_contraction_agrees_with_the_chain(sys_b, mu_b):
    """On sys B the exact average over every edge path equals the mean of
    4,000 chain-driven pairs drawn from mu_N within three standard errors."""
    rows = cl.check_average_contraction(sys_b, mu_b, i_max=8)
    mean, stderr = chain_contraction(sys_b, mu_b, i_max=8, n_mc=4000, seed=3)
    exact = np.array([r.estimate for r in rows])
    assert np.all(np.abs(exact - mean) <= 3.0 * stderr), (exact, mean, stderr)


def test_average_contraction_exact_zero_at_shared_fixed_point(sys_a):
    # both maps of a one-map system fix 0; starting mass at 0 stays there
    cfg = {
        "dimension": 1,
        "vertices": [
            {"index": 1, "lower": [0.0], "upper": [1.0], "base_point": [0.0]},
        ],
        "edges": [
            {"id": "h1", "source": 1, "target": 1, "linear": [0.5],
             "offset": [0.0], "prob": {"family": "constant", "alpha": 0.5}},
            {"id": "h2", "source": 1, "target": 1, "linear": [0.5],
             "offset": [0.0], "prob": {"family": "constant", "alpha": 0.5}},
        ],
    }
    sys_ = cl.validate_system(cfg)
    mu = cl.EmpiricalMeasure(vertices=[1], points=[[0.0]], weights=[1.0])
    rows = cl.check_average_contraction(sys_, mu, i_max=4)
    assert all(r.estimate == 0.0 for r in rows)


@pytest.mark.parametrize("args, name", [
    (dict(i_max=-1), "i_max"),
    (dict(i_max=0), "i_max"),
])
def test_average_contraction_refuses_empty_counts(args, name, sys_a, mu_a):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a nan row would warn first
        with pytest.raises(ValueError, match=name):
            cl.check_average_contraction(sys_a, mu_a, **args)

