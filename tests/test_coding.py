from __future__ import annotations

import numpy as np
import pytest

import cmslab as cl

from conftest import sys_a_config
from oracles import cauchy_violation, fold_backward_orbit


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


def test_backward_orbit_applies_each_map_once(sys_a, monkeypatch):
    # one map application per edge; folding every suffix afresh would make
    # 256 * 257 / 2 = 32,896
    calls = []
    apply = cl.AffineMap.apply

    def counting(self, x):
        calls.append(1)
        return apply(self, x)

    past = random_past(sys_a, np.random.default_rng(4), 256)
    monkeypatch.setattr(cl.AffineMap, "apply", counting)
    orbit = cl.backward_orbit(sys_a, past)
    assert len(orbit) == 256
    assert len(calls) <= 256


@pytest.mark.parametrize("fixture", ["sys_a", "sys_b", "sys_c"])
def test_deep_past_is_finite_and_certified(fixture, request):
    # at a = 1/2 the product of linear parts goes subnormal near depth 1,022
    sys_ = request.getfixturevalue(fixture)
    past = random_past(sys_, np.random.default_rng(2000), 2000)
    res = cl.coding_point(sys_, past)  # passes its Cauchy check
    assert res.depth == len(res.orbit) == 2000
    assert np.all(np.isfinite(res.point))
    shallow = cl.coding_point(sys_, past[-64:])
    assert float(np.linalg.norm(res.point - shallow.point)) <= \
        shallow.error_bound


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


@pytest.mark.parametrize("fixture", ["sys_a", "sys_b", "sys_c"])
@pytest.mark.parametrize("patched, factor", [
    ("max_displacement", 0.9), ("max_displacement", 0.3),
    ("contraction_rate", 0.95), ("contraction_rate", 0.7)])
def test_cauchy_check_fails_where_a_per_truncation_check_does(
        fixture, patched, factor, request, monkeypatch):
    """With a or d patched below its value, coding_point raises at the first
    failing depth, with the message a check of one truncation at a time
    gives, and passes exactly when that check passes."""
    sys_ = request.getfixturevalue(fixture)
    true_value = getattr(sys_, patched)
    monkeypatch.setitem(sys_.__dict__, patched, true_value * factor)
    rng = np.random.default_rng(8)
    failures = set()
    for depth in (1, 2, 7, 40, 256):
        for _ in range(5):
            past = random_past(sys_, rng, depth)
            expected = cauchy_violation(sys_, past,
                                        cl.backward_orbit(sys_, past))
            if expected is None:
                cl.coding_point(sys_, past)
                continue
            with pytest.raises(AssertionError) as info:
                cl.coding_point(sys_, past)
            assert str(info.value) == expected
            failures.add(expected.split(":")[0])
    # sys C's base points map onto base points: every gap is 0
    assert (fixture == "sys_c") == (not failures)


@pytest.mark.parametrize("depth", [1, 5, 30])
def test_a_gap_exactly_at_the_bound_passes(depth, sys_a, monkeypatch):
    """On the e1 chain every truncation of sys A is 0, so moving the
    deepest one to a^(depth-1) d plus the slack puts its gap exactly at
    the bound: it passes there and fails one ulp above, as the check of
    one truncation at a time says."""
    a, d = sys_a.contraction_rate, sys_a.max_displacement
    past = ("e1",) * depth
    exact = cl.coding.backward_orbit
    bound = a ** (depth - 1) * d + 1e-12  # the slack is 1e-12 below 1

    def moved(to):
        def orbit(sys_, past_):
            points = exact(sys_, past_)
            points[0] = np.array([to])
            return points
        return orbit

    monkeypatch.setattr(cl.coding, "backward_orbit", moved(bound))
    assert cauchy_violation(sys_a, past, moved(bound)(sys_a, past)) is None
    assert cl.coding_point(sys_a, past).point[0] == bound
    above = float(np.nextafter(bound, 1.0))
    message = cauchy_violation(sys_a, past, moved(above)(sys_a, past))
    assert message.startswith(f"Cauchy inequality violated at depth "
                              f"{depth - 1}: ")
    monkeypatch.setattr(cl.coding, "backward_orbit", moved(above))
    with pytest.raises(AssertionError) as info:
        cl.coding_point(sys_a, past)
    assert str(info.value) == message


def test_orbit_is_the_fold_bit_for_bit_when_every_delta_is_zero(sys_c):
    """Sys C's maps carry base points onto base points, so every delta_e is
    exactly 0 and the telescoped orbit is each truncation folded afresh."""
    assert all(sys_c.displacement(e) == 0.0 for e in sys_c.edges)
    rng = np.random.default_rng(13)
    for depth in (1, 2, 9, 64):
        past = random_past(sys_c, rng, depth)
        orbit = cl.backward_orbit(sys_c, past)
        reference = fold_backward_orbit(sys_c, past)
        assert len(orbit) == len(reference) == depth
        assert all(np.array_equal(x, y) for x, y in zip(orbit, reference))


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


def test_word_parsing_round_trip():
    word = ("e1", "e2", "e1")
    assert cl.parse_word(".".join(word)) == word
    with pytest.raises(cl.InadmissibleWord):
        cl.parse_word("")
