from __future__ import annotations

import numpy as np
import pytest

import cmslab as cl

from conftest import sys_a_config


def random_past(sys_, rng, depth):
    """Admissible past word of the given edge count, built backwards."""
    ids = []
    vertex = int(rng.choice([v.index for v in sys_.vertices]))
    for _ in range(depth):
        edges = [e for e in sys_.edges if e.target == vertex]
        e = edges[int(rng.integers(len(edges)))]
        ids.append(e.id)
        vertex = e.source
    return tuple(reversed(ids))


def extend_past(sys_, rng, past, extra):
    """Prepend `extra` admissible edges to the deep end of a past word."""
    ids = []
    vertex = sys_.edge(past[0]).source
    for _ in range(extra):
        edges = [e for e in sys_.edges if e.target == vertex]
        e = edges[int(rng.integers(len(edges)))]
        ids.append(e.id)
        vertex = e.source
    return tuple(reversed(ids)) + tuple(past)


def test_backward_orbit_e2_chain(sys_a):
    orbit = cl.backward_orbit(sys_a, ("e2", "e2", "e2"))
    values = [float(x[0]) for x in orbit]
    assert values == [0.875, 0.75, 0.5]


def test_backward_orbit_e1_chain_is_zero(sys_a):
    orbit = cl.backward_orbit(sys_a, ("e1",) * 6)
    assert all(float(x[0]) == 0.0 for x in orbit)


def test_backward_orbit_sys_c_single_edge(sys_c):
    orbit = cl.backward_orbit(sys_c, ("c12",))
    assert float(orbit[0][0]) == 2.0


def test_coding_point_converges_to_fixed_point(sys_a):
    result = cl.coding_point(sys_a, ("e2",) * 30)
    assert abs(float(result.point[0]) - 1.0) <= 2.0 ** -30
    assert result.error_bound == 2.0 ** -30  # a^30 * d/(1-a) with d = a = 1/2
    assert result.depth == 30


def test_coding_point_ignores_probabilities(sys_a, sys_b):
    word = ("e2", "e1", "e2", "e2", "e1")
    ra = cl.coding_point(sys_a, word)
    rb = cl.coding_point(sys_b, word)
    assert np.array_equal(ra.point, rb.point)
    assert ra.error_bound == rb.error_bound


def test_coding_point_error_bound_formula(sys_c):
    rng = np.random.default_rng(0)
    past = random_past(sys_c, rng, 20)
    result = cl.coding_point(sys_c, past)
    a = sys_c.contraction_rate
    d = sys_c.max_displacement
    assert result.error_bound == a ** 20 * d / (1.0 - a)
    assert result.error_bound == 0.0  # base points map onto base points


@pytest.mark.parametrize("fixture", ["sys_a", "sys_b", "sys_c"])
def test_cauchy_differences_exact(fixture, request):
    sys_ = request.getfixturevalue(fixture)
    a = sys_.contraction_rate
    d = sys_.max_displacement
    rng = np.random.default_rng(123)
    for _ in range(100):
        depth = int(rng.integers(1, 25))
        past = random_past(sys_, rng, depth)
        orbit = cl.backward_orbit(sys_, past)
        chain = [sys_.base_point(sys_.edge(past[-1]).target)] + orbit[::-1]
        for k, (shallow, deeper) in enumerate(zip(chain, chain[1:])):
            gap = float(np.linalg.norm(deeper - shallow))
            assert gap <= a ** k * d


@pytest.mark.parametrize("fixture", ["sys_a", "sys_b", "sys_c"])
def test_reach_bound_from_base_point(fixture, request):
    sys_ = request.getfixturevalue(fixture)
    a = sys_.contraction_rate
    d = sys_.max_displacement
    rng = np.random.default_rng(321)
    for _ in range(50):
        past = random_past(sys_, rng, int(rng.integers(1, 20)))
        res = cl.coding_point(sys_, past)
        anchor = sys_.base_point(sys_.edge(past[-1]).target)
        gap = float(np.linalg.norm(res.point - anchor))
        assert gap <= d / (1.0 - a) + res.error_bound


def test_refinement_within_error_bound(sys_a, sys_c):
    rng = np.random.default_rng(55)
    for sys_ in (sys_a, sys_c):
        for _ in range(50):
            depth = int(rng.integers(1, 20))
            past = random_past(sys_, rng, depth)
            deeper = extend_past(sys_, rng, past, 10)
            res = cl.coding_point(sys_, past)
            ref = cl.coding_point(sys_, deeper)
            gap = float(np.linalg.norm(res.point - ref.point))
            assert gap <= res.error_bound


def test_shift_equivariance(sys_a, sys_c):
    rng = np.random.default_rng(77)
    for sys_ in (sys_a, sys_c):
        a = sys_.contraction_rate
        for _ in range(50):
            past = random_past(sys_, rng, int(rng.integers(1, 15)))
            res = cl.coding_point(sys_, past)
            vertex = sys_.edge(past[-1]).target
            extensions = [e for e in sys_.edges if e.source == vertex]
            e = extensions[int(rng.integers(len(extensions)))]
            extended = cl.coding_point(sys_, past + (e.id,))
            residual = float(np.linalg.norm(
                extended.point - e.map.apply(res.point)))
            assert residual <= a * res.error_bound + extended.error_bound


def far_box_config() -> dict:
    """Sys A's two halving maps on the box [1e5, 1e5 + 1], where one
    rounding unit of a point (1.46e-11) exceeds 1e-12 * max(1, d)."""
    cfg = sys_a_config()
    cfg["vertices"][0].update(lower=[1e5], upper=[1e5 + 1.0], base_point=[1e5])
    cfg["edges"][0]["offset"] = [50000.000001]
    cfg["edges"][1]["offset"] = [50000.5]
    return cfg


def test_cauchy_check_allows_rounding_far_from_the_origin():
    far = cl.validate_system(far_box_config())
    res = cl.coding_point(far, ("e2",) * 60)
    assert res.point[0] == pytest.approx(1e5 + 1.0, abs=1e-9)
    assert len(res.orbit) == res.depth == 60


@pytest.mark.parametrize("make_config, shift", [(sys_a_config, 1e-9),
                                                (far_box_config, 1e-6)])
def test_cauchy_check_catches_a_perturbed_orbit(make_config, shift,
                                                monkeypatch):
    system = cl.validate_system(make_config())
    exact = cl.coding.backward_orbit

    def perturbed(sys_, past):
        orbit = exact(sys_, past)
        orbit[30] = orbit[30] + shift
        return orbit

    monkeypatch.setattr(cl.coding, "backward_orbit", perturbed)
    with pytest.raises(AssertionError, match="Cauchy inequality violated"):
        cl.coding_point(system, ("e2",) * 60)


def test_inadmissible_word_rejected(sys_c):
    with pytest.raises(cl.InadmissibleWord):
        cl.backward_orbit(sys_c, ("c11", "c21"))  # c11 ends at 1, c21 needs 2
    with pytest.raises(cl.InadmissibleWord):
        cl.coding_point(sys_c, ("nope",))
    with pytest.raises(cl.InadmissibleWord):
        cl.coding_point(sys_c, ())


def test_coding_refused_without_uniform_contraction():
    cfg = {
        "dimension": 1,
        "vertices": [
            {"index": 1, "lower": [0.0], "upper": [0.1], "base_point": [0.0]},
            {"index": 2, "lower": [0.5], "upper": [1.5], "base_point": [1.0]},
        ],
        "edges": [
            {"id": "grow", "source": 1, "target": 2, "linear": [2.0],
             "offset": [0.5], "prob": {"family": "constant", "alpha": 1.0}},
            {"id": "shrink", "source": 2, "target": 1, "linear": [0.05],
             "offset": [0.0], "prob": {"family": "constant", "alpha": 1.0}},
        ],
    }
    sys_ = cl.validate_system(cfg)
    with pytest.raises(cl.NotUniformlyContractive):
        cl.coding_point(sys_, ("shrink", "grow"))


# --- oscillation sums -------------------------------------------------------

def test_f_sum_zero_for_constant_probabilities(sys_a):
    rng = np.random.default_rng(9)
    for _ in range(20):
        past = random_past(sys_a, rng, 10)
        res = cl.coding_point(sys_a, past)
        partial, tail = cl.f_sum(sys_a, ("e1", "e2", "e1"), res.point,
                                 point_error=res.error_bound)
        assert partial == 0.0
        assert tail == 0.0


def test_f_sum_bounded_by_full_modulus_series(sys_b, constants_b):
    rng = np.random.default_rng(10)
    for _ in range(20):
        past = random_past(sys_b, rng, 40)
        res = cl.coding_point(sys_b, past)
        length = int(rng.integers(1, 8))
        word = tuple("e1" if rng.random() < 0.5 else "e2"
                     for _ in range(length))
        partial, tail = cl.f_sum(sys_b, word, res.point,
                                 point_error=res.error_bound)
        assert partial + tail <= constants_b.dini_sum_full + 1e-9


def test_f_sum_single_term(sys_b):
    past = ("e2",) * 40
    res = cl.coding_point(sys_b, past)
    partial, _ = cl.f_sum(sys_b, ("e1",), res.point,
                          point_error=res.error_bound)
    e1 = sys_b.edge("e1")
    x1 = sys_b.base_point(1)
    expected = abs(e1.prob.value(res.point) - e1.prob.value(x1))
    assert partial == expected


def test_f_sum_rejects_foreign_point(sys_c):
    res = cl.coding_point(sys_c, ("c12",))  # lands at vertex 2
    with pytest.raises(cl.InadmissibleWord):
        cl.f_sum(sys_c, ("c11",), res.point)  # c11 starts at vertex 1


def test_word_parsing_round_trip():
    word = ("e1", "e2", "e1")
    assert cl.parse_word(cl.format_word(word)) == word
    with pytest.raises(cl.InadmissibleWord):
        cl.parse_word("")
