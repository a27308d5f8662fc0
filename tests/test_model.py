from __future__ import annotations

import json
import math
import re
import time

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import cmslab as cl
from cmslab import model as model_mod

from conftest import sys_a_config, sys_b_config, sys_c_config, table_of
from oracles import corner_values, direct_modulus_series, power_iteration_norm


# --- validation -------------------------------------------------------------

def test_sys_a_validates(sys_a):
    assert len(sys_a.vertices) == 1
    assert len(sys_a.edges) == 2
    assert sys_a.support_set == frozenset({1})
    assert sys_a.all_constant_probabilities


def test_unnormalized_constants_rejected():
    cfg = sys_a_config()
    cfg["edges"][0]["prob"]["alpha"] = 0.6
    cfg["edges"][1]["prob"]["alpha"] = 0.6
    with pytest.raises(cl.NormalizationError):
        cl.validate_system(cfg)


def test_sys_b_affine_normalization_ok(sys_b):
    # alpha sums to 1/3 + 2/3 and the gradients cancel
    assert not sys_b.all_constant_probabilities
    assert sys_b.contraction_rate == 0.5


def test_unknown_fields_rejected():
    cfg = sys_a_config()
    cfg["flavor"] = "strange"
    with pytest.raises(cl.ConfigError):
        cl.validate_system(cfg)
    cfg = sys_a_config()
    cfg["edges"][0]["colour"] = 1
    with pytest.raises(cl.ConfigError):
        cl.validate_system(cfg)


def test_region_escape():
    cfg = sys_a_config()
    cfg["edges"][1]["offset"] = [0.9]  # w(1) = 1.4 leaves [0, 1]
    with pytest.raises(cl.RegionEscape):
        cl.validate_system(cfg)


def test_empty_support():
    cfg = sys_a_config()
    cfg["support_set"] = []
    with pytest.raises(cl.EmptySupport):
        cl.validate_system(cfg)


def test_nonpositive_probability():
    cfg = sys_a_config()
    cfg["edges"][0]["prob"]["alpha"] = -0.1
    cfg["edges"][1]["prob"]["alpha"] = 1.1
    violations = cl.collect_violations(cfg)
    assert any(isinstance(v, cl.NonPositiveProbability) for v in violations)


def test_affine_probability_zero_at_corner_rejected():
    cfg = sys_b_config()
    # p_e1(x) = x is 0 at the left corner
    cfg["edges"][0]["prob"] = {"family": "affine", "alpha": 0.0, "beta": [1.0]}
    cfg["edges"][1]["prob"] = {"family": "affine", "alpha": 1.0, "beta": [-1.0]}
    with pytest.raises(cl.NonPositiveProbability):
        cl.validate_system(cfg)


def test_missing_out_edge():
    cfg = sys_c_config()
    cfg["edges"] = [e for e in cfg["edges"] if e["source"] != 2]
    cfg["edges"][0]["prob"]["alpha"] = 0.5  # keep vertex 1 normalized
    violations = cl.collect_violations(cfg)
    assert any("no out-edge" in str(v) for v in violations)


def test_overlapping_regions_rejected():
    cfg = sys_c_config()
    cfg["vertices"][1]["lower"] = [0.5]
    cfg["vertices"][1]["upper"] = [1.5]
    cfg["vertices"][1]["base_point"] = [0.75]
    violations = cl.collect_violations(cfg)
    assert any("intersect" in str(v) for v in violations)


def test_base_point_outside_region():
    cfg = sys_a_config()
    cfg["vertices"][0]["base_point"] = [2.0]
    violations = cl.collect_violations(cfg)
    assert any("base point" in str(v) for v in violations)


def test_collect_violations_accumulates():
    cfg = sys_a_config()
    cfg["support_set"] = []
    cfg["edges"][0]["prob"]["alpha"] = 0.6
    cfg["edges"][1]["prob"]["alpha"] = 0.6
    violations = cl.collect_violations(cfg)
    assert len(violations) >= 2


def test_constant_family_with_gradient_rejected():
    cfg = sys_a_config()
    cfg["edges"][0]["prob"]["beta"] = [0.2]
    with pytest.raises(cl.ConfigError):
        cl.validate_system(cfg)


# each structural violation of a well-formed sys A, keyed by its message
_VIOLATIONS = {
    "vertex indices must be 1..1, got [2]":
        lambda c: c["vertices"][0].update(index=2),
    "vertex 1: empty region":
        lambda c: c["vertices"][0].update(lower=[1.0], upper=[0.0]),
    "support set names unknown vertex 3": lambda c: c.update(support_set=[1, 3]),
    "edge ids are not unique": lambda c: c["edges"][1].update(id="e1"),
    "edge e1: unknown endpoint": lambda c: c["edges"][0].update(target=5),
}


@pytest.mark.parametrize("message", list(_VIOLATIONS))
def test_structural_violation_raises_validation_error(message):
    cfg = sys_a_config()
    _VIOLATIONS[message](cfg)
    with pytest.raises(cl.ValidationError, match=re.escape(message)):
        cl.validate_system(cfg)


# each corruption of sys A, keyed by the text its ConfigError must contain:
# the field path, and for a second corruption of one field also the reason
_MALFORMED = {
    "vertices[0].lower": lambda c: c["vertices"][0].pop("lower"),
    "edges[1].prob": lambda c: c["edges"][1].pop("prob"),
    "edges": lambda c: c.update(edges=3),
    "support_set": lambda c: c.update(support_set=5),
    "edges[0].prob.alpha": lambda c: c["edges"][0]["prob"].update(alpha="x"),
    "vertices[0]": lambda c: c.update(vertices=[1]),
    "edges[0].target": lambda c: c["edges"][0].update(target=1.7),
    "dimension": lambda c: c.update(dimension=True),
    "support_set: expected a list": lambda c: c.update(support_set="1"),
    "edges[0].id: expected a nonempty string with no '.', ',', '\"', CR or "
    "LF, got 3":
        lambda c: c["edges"][0].update(id=3),
    "edges[0].id: expected a nonempty string with no '.', ',', '\"', CR or "
    "LF, got ''":
        lambda c: c["edges"][0].update(id=""),
    "edges[1].id: expected a nonempty string with no '.', ',', '\"', CR or "
    "LF, got 'e.1'":
        lambda c: c["edges"][1].update(id="e.1"),
    # JSON readers accept NaN and Infinity; a config refuses them
    "edges[0].prob.alpha: expected finite numbers, got nan":
        lambda c: c["edges"][0]["prob"].update(alpha=math.nan),
    "edges[0].offset: expected finite numbers":
        lambda c: c["edges"][0].update(offset=[math.nan]),
    "edges[0].prob.beta: expected finite numbers":
        lambda c: c["edges"][0]["prob"].update(beta=[math.nan]),
    "vertices[0].upper: expected finite numbers":
        lambda c: c["vertices"][0].update(upper=[math.inf]),
    "edges[1].linear: expected finite numbers":
        lambda c: c["edges"][1].update(linear=[math.nan]),
    "vertices[0].lower: expected array of shape (1,), got (2,)":
        lambda c: c["vertices"][0].update(lower=[0.0, 0.0]),
    "edges[0].linear: linear part needs 1 entries":
        lambda c: c["edges"][0].update(linear=[0.5, 0.0]),
    "edges[0].prob: unknown probability family 'beta'":
        lambda c: c["edges"][0]["prob"].update(family="beta"),
    # a dimension no config can fill is refused before a k-vector is built
    f"edges[0].linear: linear part needs {10 ** 30} entries":
        lambda c: c.update(dimension=10 ** 15, vertices=[]),
}


@pytest.mark.parametrize("path", list(_MALFORMED))
def test_malformed_config_raises_config_error_naming_the_field(path):
    cfg = sys_a_config()
    _MALFORMED[path](cfg)
    with pytest.raises(cl.ConfigError, match=re.escape(path)):
        cl.validate_system(cfg)
    certificate = {"system": cfg, "query": {"words": ["e1"]},
                   "pieces": [], "cost": 0.0}
    with pytest.raises(cl.CertificateInvalid, match=re.escape(path)):
        cl.verify_certificate_data(certificate)


# --- derived constants ------------------------------------------------------

def test_constants_sys_a(constants_a):
    assert constants_a.a == 0.5
    assert constants_a.delta == 0.5
    assert constants_a.d == 0.5
    assert constants_a.dini_sum_half == 0.0
    assert constants_a.dini_sum_full == 0.0


def test_constants_sys_b(constants_b, mu_b):
    cs = constants_b
    assert cs.a == 0.5
    assert cs.delta == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert cs.d == 0.5
    # geometric series: modulus(t) = t/3, reach d/(1-a) = 1, ratio 1/2
    oracle_full = direct_modulus_series(slope=1.0 / 3.0, ratio=0.5, scale=1.0)
    assert oracle_full == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert cs.dini_sum_full == pytest.approx(2.0 / 3.0, abs=1e-11)
    oracle_half = direct_modulus_series(slope=1.0 / 3.0,
                                        ratio=math.sqrt(0.5), scale=cs.c_hat)
    assert cs.dini_sum_half == pytest.approx(oracle_half, abs=1e-11)


def test_constants_sys_c(constants_c):
    assert constants_c.a == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert constants_c.delta == 0.5
    assert constants_c.d == 0.0
    assert constants_c.dini_sum_full == 0.0


def test_b_le_d_everywhere(constants_a, constants_b, constants_c):
    for cs in (constants_a, constants_b, constants_c):
        assert cs.b <= cs.d + 1e-15


def test_c_hat_below_b_over_one_minus_a(constants_a, constants_b):
    for cs in (constants_a, constants_b):
        assert cs.c_hat < cs.b / (1.0 - cs.a)


def test_delta_times_out_degree(sys_a, sys_b, sys_c, constants_a, constants_b,
                                constants_c):
    for sys_, cs in ((sys_a, constants_a), (sys_b, constants_b),
                     (sys_c, constants_c)):
        for v in sys_.vertices:
            assert cs.delta * len(sys_.out_edges(v.index)) <= 1.0 + 1e-12


def test_no_contraction_detected():
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
    assert sys_.contraction_rate >= 1.0
    mu = cl.pushforward_measure(sys_, 4)
    with pytest.raises(cl.NotUniformlyContractive):
        cl.derive_constants(sys_, mu)


def test_dini_divergence(sys_b):
    with pytest.raises(cl.DiniDivergence):
        cl.modulus_geometric_sum(sys_b, ratio=1.0, scale=0.1)


def test_modulus_sum_truncation_error_below_tolerance(sys_b):
    for tol in (1e-8, 1e-12):
        got = cl.modulus_geometric_sum(sys_b, ratio=0.5, scale=1.0)
        assert abs(got - 2.0 / 3.0) < tol


@pytest.mark.parametrize("ratio", [0.0, 0.1, 0.5, math.sqrt(0.5), 0.9])
def test_modulus_sum_closed_form_matches_direct_series(sys_b, ratio):
    # slope 1/3: scales from 3 on put leading terms at the cap
    for scale in (0.0, 1e-3, 0.5, 1.0, 2.9, 3.0, 3.1, 7.0, 100.0, 1e6):
        oracle = direct_modulus_series(slope=1.0 / 3.0, ratio=ratio,
                                       scale=scale, n_terms=2000)
        got = cl.modulus_geometric_sum(sys_b, ratio=ratio, scale=scale)
        assert got == pytest.approx(oracle, rel=1e-15, abs=0.0), (ratio, scale)


# --- closed-form box geometry -----------------------------------------------

def test_spectral_norm_closed_form_matches_power_iteration():
    rng = np.random.default_rng(2024)
    for k in (1, 2):
        for _ in range(50):
            a = rng.normal(size=(k, k))
            closed = cl.AffineMap(linear=a, offset=np.zeros(k)).lipschitz_constant
            assert closed == pytest.approx(power_iteration_norm(a), abs=1e-10)


def test_spectral_norm_against_numpy_svd():
    rng = np.random.default_rng(7)
    for k in (1, 2, 3, 5):
        for _ in range(20):
            a = rng.normal(size=(k, k))
            lip = cl.AffineMap(linear=a, offset=np.zeros(k)).lipschitz_constant
            assert lip == pytest.approx(
                float(np.linalg.svd(a, compute_uv=False)[0]), rel=1e-9, abs=1e-12)


@st.composite
def box_configs(draw):
    """Configs of 1-2 disjoint boxes in R^k, k in 1..4, two out-edges each.

    Probabilities are normalized by construction; `positive` keeps them in
    (0, 1) and `inside` centres every image box in its target box, so a
    config with both is valid and the others exercise the rejections.
    """
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 2))
    inside, positive = draw(st.booleans()), draw(st.booleans())

    def vec(lo, hi):
        return np.array([draw(st.floats(lo, hi)) for _ in range(k)])

    vertices = []
    for i in range(n):
        lower = vec(-5.0, 5.0) + 20.0 * i
        upper = lower + vec(1.0, 3.0)
        vertices.append({"index": i + 1, "lower": lower.tolist(),
                         "upper": upper.tolist(), "base_point": lower.tolist()})

    # |beta . x| <= 0.1 on every box when positive (coordinates below 28)
    scale = 0.1 / (28.0 * k) if positive else 0.1
    edges = []
    for v in vertices:
        alpha = draw(st.floats(0.2, 0.8))
        beta = scale * vec(-1.0, 1.0)
        centre = (np.array(v["lower"]) + np.array(v["upper"])) / 2.0
        for j, (a, b) in enumerate(((alpha, beta), (1.0 - alpha, -beta))):
            tgt = vertices[draw(st.integers(0, n - 1))]
            # row sums of |A| <= 0.3 keep the image half-width below 0.5
            linear = np.array([vec(-0.3 / k, 0.3 / k) for _ in range(k)])
            goal = (np.array(tgt["lower"]) + np.array(tgt["upper"])) / 2.0
            if not inside:
                goal = goal + vec(-1.0, 1.0)
            edges.append({
                "id": f"v{v['index']}e{j}", "source": v["index"],
                "target": tgt["index"], "linear": linear.ravel().tolist(),
                "offset": (goal - linear @ centre).tolist(),
                "prob": {"family": "affine", "alpha": a, "beta": b.tolist()}})
    return {"dimension": k, "vertices": vertices, "edges": edges}


def _flags(violations, kind, edge_id, text=""):
    return any(isinstance(v, kind) and str(v).startswith(f"edge {edge_id}:")
               and text in str(v) for v in violations)


# no shrink phase: a property that raises is reported with its own error
# and example, where the shrinker could fail on it and report its own
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(box_configs())
def test_box_geometry_matches_corner_oracle(cfg):
    violations = cl.collect_violations(cfg)
    _, vertices, edges, _ = model_mod._parse_raw(cfg)
    box = {v.index: (v.lower, v.upper) for v in vertices}
    tol = model_mod.CONTAINMENT_TOL
    for e in edges:
        (lo, hi), (tlo, thi) = box[e.source], box[e.target]

        images = np.array(corner_values(e.map.apply, lo, hi))
        img_lo, img_hi = e.map.image_box(lo, hi)
        assert img_lo == pytest.approx(images.min(axis=0), rel=1e-12, abs=1e-12)
        assert img_hi == pytest.approx(images.max(axis=0), rel=1e-12, abs=1e-12)
        excess = max(np.max(tlo - images.min(axis=0)),
                     np.max(images.max(axis=0) - thi))
        if abs(excess - tol) > 1e-9:
            assert _flags(violations, cl.RegionEscape, e.id) == (excess > tol)

        vals = corner_values(e.prob.value, lo, hi)
        p_lo, p_hi = model_mod.box_range(e.prob.alpha, e.prob.beta, lo, hi)
        assert (p_lo, p_hi) == pytest.approx((min(vals), max(vals)),
                                             rel=1e-12, abs=1e-12)
        if abs(min(vals)) > 1e-9:
            assert (_flags(violations, cl.NonPositiveProbability, e.id, "<= 0")
                    == (min(vals) <= 0.0))

        assert e.map.lipschitz_constant == pytest.approx(
            power_iteration_norm(e.map.linear), rel=1e-9, abs=1e-15)

    if violations:
        return
    sys_ = cl.validate_system(cfg)
    mu = cl.pushforward_measure(sys_, 2)
    cs = cl.derive_constants(sys_, mu)
    assert cs.a == pytest.approx(
        max(power_iteration_norm(e.map.linear) for e in edges), rel=1e-9)
    assert cs.delta == pytest.approx(
        min(min(corner_values(e.prob.value, *box[e.source])) for e in edges),
        rel=1e-12, abs=1e-12)

    def expected_displacement(v):
        out = sys_.out_edges(v.index)
        return lambda x: sum(sys_.displacement(e) * e.prob.value(x) for e in out)

    b = max(max(corner_values(expected_displacement(v), v.lower, v.upper))
            for v in sys_.vertices)
    assert cs.b == pytest.approx(max(b, 0.0), rel=1e-12, abs=1e-12)


def test_validate_and_constants_at_k50_in_polynomial_time():
    k = 50
    lo = {1: 0.0, 2: 2.0}
    edges = [{"id": f"e{s}{t}", "source": s, "target": t,
              "linear": np.diag(np.full(k, 0.5)).ravel().tolist(),
              "offset": [lo[t] - 0.5 * lo[s]] * k,
              "prob": {"family": "constant", "alpha": 0.5}}
             for s in (1, 2) for t in (1, 2)]
    cfg = {"dimension": k,
           "vertices": [{"index": i, "lower": [lo[i]] * k,
                         "upper": [lo[i] + 1.0] * k, "base_point": [lo[i]] * k}
                        for i in (1, 2)],
           "edges": edges}
    start = time.perf_counter()
    sys_ = cl.validate_system(cfg)
    validate_s = time.perf_counter() - start
    mu = cl.pushforward_measure(sys_, 2)
    start = time.perf_counter()
    cs = cl.derive_constants(sys_, mu)
    constants_s = time.perf_counter() - start
    assert validate_s + constants_s < 1.0
    assert cs.a == pytest.approx(0.5, rel=1e-12)
    assert cs.delta == 0.5
    assert cs.d == 0.0 and cs.b == 0.0


def test_normalization_checked_on_large_boxes():
    # coefficient sums pass the symbolic check (beta sums to 1e-13 <= 1e-12),
    # but at x = 1e5 the probabilities add up to 1 + 1e-8
    cfg = {
        "dimension": 1,
        "vertices": [{"index": 1, "lower": [0.0], "upper": [1e5],
                      "base_point": [0.0]}],
        "edges": [
            {"id": "e1", "source": 1, "target": 1, "linear": [0.5],
             "offset": [0.0],
             "prob": {"family": "affine", "alpha": 0.5, "beta": [1e-13]}},
            {"id": "e2", "source": 1, "target": 1, "linear": [0.5],
             "offset": [5e4], "prob": {"family": "constant", "alpha": 0.5}},
        ],
    }
    with pytest.raises(cl.NormalizationError):
        cl.validate_system(cfg)


def test_built_systems_are_read_not_recomputed(monkeypatch):
    """Validation and construction take every edge map's spectral norm
    once and every vertex's normalization gap once, validation handing its
    gaps to the system it builds; afterwards coding_point, derive_constants,
    build_table and walk_cylinders read the system's own values and take
    neither again, on sys C (4 edges, constant) and sys B (affine)."""
    calls = []
    lipschitz = cl.AffineMap.lipschitz_constant
    normalization = model_mod._normalization
    monkeypatch.setattr(cl.AffineMap, "lipschitz_constant", property(
        lambda m: calls.append("svd") or lipschitz.fget(m)))
    monkeypatch.setattr(model_mod, "_normalization",
                        lambda *args: calls.append("gap") or normalization(*args))
    for make_config, past in ((sys_c_config, ("c11", "c12", "c21") * 4),
                              (sys_b_config, ("e1", "e2") * 6)):
        sys_ = cl.validate_system(make_config())
        assert calls.count("svd") == len(sys_.edges)
        assert calls.count("gap") == len(sys_.vertices)
        mu = cl.pushforward_measure(sys_)
        calls.clear()
        cl.coding_point(sys_, past)
        cl.derive_constants(sys_, mu)
        for measure in ((mu, cl.EXACT) if sys_.all_constant_probabilities
                        else (mu,)):
            table_of(sys_, 3, measure)
            cl.walk_cylinders(sys_, 3, measure)
        assert calls == []


# --- serialization ----------------------------------------------------------

def test_config_round_trip_bit_exact(sys_b, mu_b, constants_b):
    blob = json.dumps(cl.system_to_config(sys_b))
    reparsed = cl.validate_system(json.loads(blob))
    cs2 = cl.derive_constants(reparsed, mu_b)
    assert cs2.a == constants_b.a
    assert cs2.d == constants_b.d
    assert cs2.delta == constants_b.delta
    assert cl.system_to_config(reparsed) == cl.system_to_config(sys_b)


def test_vertex_grid_contains_corners(sys_c):
    v = sys_c.vertex(2)
    corners = {float(c[0]) for c in corner_values(lambda x: x, v.lower, v.upper)}
    assert {2.0, 3.0} <= corners
    assert all(v.contains(np.array([c])) for c in corners)
    assert model_mod.box_range(0.0, np.ones(1), v.lower, v.upper) == (2.0, 3.0)
