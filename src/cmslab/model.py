"""System definition, validation, and derived constants.

A system is a finite directed graph whose vertices carry axis-aligned box
regions in R^k with a marked base point, and whose edges carry an affine map
from the source region into the target region together with a probability
function (constant or affine) over the source region.  Out-edge probabilities
at each vertex sum identically to 1.

Configs are plain JSON objects; ``validate_system`` parses and checks them
(the schema is in README.md).  Every check on a box region is a closed form:
affine functions attain their extremes at corners, so ``box_range`` and
``AffineMap.image_box`` are exact without enumerating the 2^k corners.
Validated systems are immutable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DiniDivergence,
    EmptySupport,
    InadmissibleWord,
    NoContraction,
    NonPositiveProbability,
    NormalizationError,
    RegionEscape,
    ValidationError,
)

if TYPE_CHECKING:
    from .simulate import EmpiricalMeasure

CONTAINMENT_TOL = 1e-9
COEFF_TOL = 1e-12


def _frozen(values, shape=None) -> np.ndarray:
    """A read-only float copy of finite numbers; strings, booleans, NaN and
    infinities are refused."""
    arr = np.array(values)
    if arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr)):
        raise ConfigError(f"expected finite numbers, got {values!r}")
    arr = arr.astype(float)
    if shape is not None and arr.shape != shape:
        raise ConfigError(f"expected array of shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class AffineMap:
    """x -> linear @ x + offset on R^k."""

    linear: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        k = len(self.offset)
        object.__setattr__(self, "linear", _frozen(self.linear, (k, k)))
        object.__setattr__(self, "offset", _frozen(self.offset, (k,)))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.linear @ x + self.offset

    def apply_many(self, pts: np.ndarray) -> np.ndarray:
        """Apply to an (n, k) array of points, allocating only the result."""
        out = pts @ self.linear.T
        out += self.offset
        return out

    def image_box(self, lower: np.ndarray, upper: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
        """Exact bounding box of the image of the box [lower, upper].

        With centre c and half-width r it is A c + b +- |A| r; each bound is
        attained at a corner of the box.
        """
        centre = self.apply((lower + upper) / 2.0)
        radius = np.abs(self.linear) @ ((upper - lower) / 2.0)
        return centre - radius, centre + radius

    @property
    def lipschitz_constant(self) -> float:
        """Spectral norm (largest singular value) of the linear part."""
        return float(np.linalg.norm(self.linear, 2))


def box_range(alpha: float, beta: np.ndarray, lower: np.ndarray,
              upper: np.ndarray) -> tuple[float, float]:
    """Exact min and max of alpha + beta . x over the box [lower, upper].

    Each coordinate contributes independently, so the extremes take the
    smaller or larger of beta_i lower_i and beta_i upper_i on every axis.
    """
    at_lower = beta * lower
    at_upper = beta * upper
    return (alpha + float(np.sum(np.minimum(at_lower, at_upper))),
            alpha + float(np.sum(np.maximum(at_lower, at_upper))))


@dataclass(frozen=True, eq=False)
class ProbabilityFunction:
    """Constant or affine probability over a source region.

    value(x) = alpha + beta . x; the oscillation modulus over points at
    distance <= t is min(|beta| t, 1).  The constant family has beta = 0.
    """

    family: str
    alpha: float
    beta: np.ndarray

    def __post_init__(self):
        if self.family not in ("constant", "affine"):
            raise ConfigError(f"unknown probability family {self.family!r}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", _frozen(self.beta))
        if self.family == "constant" and np.any(self.beta != 0.0):
            raise ConfigError("constant probability family with nonzero gradient")

    def value(self, x: np.ndarray) -> float:
        return self.alpha + float(self.beta @ x)

    def value_many(self, pts: np.ndarray) -> np.ndarray:
        out = pts @ self.beta
        out += self.alpha
        return out

    @property
    def gradient_norm(self) -> float:
        return float(np.linalg.norm(self.beta))

    @property
    def is_constant(self) -> bool:
        return not np.any(self.beta != 0.0)


@dataclass(frozen=True, eq=False)
class VertexSpace:
    """An axis-aligned box region with a marked base point."""

    index: int
    lower: np.ndarray
    upper: np.ndarray
    base_point: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", _frozen(self.lower))
        object.__setattr__(self, "upper", _frozen(self.upper))
        object.__setattr__(self, "base_point", _frozen(self.base_point))

    def contains(self, x: np.ndarray, tol: float = CONTAINMENT_TOL) -> bool:
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))


@dataclass(frozen=True, eq=False)
class DirectedEdge:
    id: str
    source: int
    target: int
    map: AffineMap
    prob: ProbabilityFunction


@dataclass(frozen=True, eq=False)
class MarkovSystem:
    """A validated system; construct through ``validate_system``."""

    dimension: int
    vertices: tuple[VertexSpace, ...]
    edges: tuple[DirectedEdge, ...]
    support_set: frozenset[int]
    _vertex_by_index: dict = field(repr=False, default_factory=dict)
    _edge_by_id: dict = field(repr=False, default_factory=dict)
    _out_edges: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        by_index = {v.index: v for v in self.vertices}
        by_id = {e.id: e for e in self.edges}
        out: dict[int, tuple[DirectedEdge, ...]] = {}
        for v in self.vertices:
            out[v.index] = tuple(sorted((e for e in self.edges if e.source == v.index),
                                        key=lambda e: e.id))
        object.__setattr__(self, "_vertex_by_index", by_index)
        object.__setattr__(self, "_edge_by_id", by_id)
        object.__setattr__(self, "_out_edges", out)

    def vertex(self, index: int) -> VertexSpace:
        return self._vertex_by_index[index]

    def edge(self, edge_id: str) -> DirectedEdge:
        try:
            return self._edge_by_id[edge_id]
        except KeyError:
            raise KeyError(f"unknown edge id {edge_id!r}") from None

    def out_edges(self, vertex_index: int) -> tuple[DirectedEdge, ...]:
        """Out-edges sorted by edge id; the canonical order."""
        return self._out_edges[vertex_index]

    def base_point(self, vertex_index: int) -> np.ndarray:
        return self._vertex_by_index[vertex_index].base_point

    @property
    def contraction_rate(self) -> float:
        """Max Lipschitz constant over edge maps."""
        return max(e.map.lipschitz_constant for e in self.edges)

    @property
    def is_uniformly_contractive(self) -> bool:
        return self.contraction_rate < 1.0

    @property
    def all_constant_probabilities(self) -> bool:
        return all(e.prob.is_constant for e in self.edges)

    def displacement(self, edge: DirectedEdge) -> float:
        """Distance from the image of the source base point to the target base point."""
        image = edge.map.apply(self.base_point(edge.source))
        return float(np.linalg.norm(image - self.base_point(edge.target)))

    @property
    def max_displacement(self) -> float:
        return max(self.displacement(e) for e in self.edges)

    @property
    def max_gradient_norm(self) -> float:
        return max(e.prob.gradient_norm for e in self.edges)

    @property
    def normalization_gap(self) -> float:
        """The largest |sum_e p_e(x) - 1| over a vertex's out-edges e and
        the points x of its region: the slack validation admitted."""
        return max(_normalization(v, self.out_edges(v.index))[2]
                   for v in self.vertices)

    def require_admissible(self, word: Sequence[str]) -> tuple[DirectedEdge, ...]:
        try:
            edges = tuple(self.edge(i) for i in word)
        except KeyError as exc:
            raise InadmissibleWord(str(exc)) from None
        if not edges:
            raise InadmissibleWord("empty word")
        for j in range(len(edges) - 1):
            if edges[j].target != edges[j + 1].source:
                raise InadmissibleWord(
                    f"edge {edges[j].id} targets vertex {edges[j].target} but "
                    f"edge {edges[j + 1].id} starts at vertex {edges[j + 1].source}")
        return edges


# ---------------------------------------------------------------------------
# config parsing and validation

_TOP_FIELDS = {"dimension", "vertices", "edges", "support_set"}
_VERTEX_FIELDS = {"index", "lower", "upper", "base_point"}
_EDGE_FIELDS = {"id", "source", "target", "linear", "offset", "prob"}
_PROB_FIELDS = {"family", "alpha", "beta"}
_REQUIRED = object()


def json_object(value, allowed: set, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {value!r}")
    unknown = set(value) - allowed
    if unknown:
        raise ConfigError(f"unknown fields in {where}: {sorted(unknown)}")
    return value


def json_field(obj: dict, key: str, where: str, convert=None, default=_REQUIRED):
    """obj[key] passed through convert; every failure names the field path."""
    path = f"{where}.{key}" if where else key
    if key not in obj:
        if default is _REQUIRED:
            raise ConfigError(f"missing config field {path}")
        return default
    try:
        return obj[key] if convert is None else convert(obj[key])
    except (ConfigError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def json_int(value, minimum: int | None = None) -> int:
    """A JSON integer, at least `minimum`; floats and booleans are refused
    rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"must be >= {minimum}, got {value}")
    return int(value)


def json_number(value) -> float:
    """A finite JSON number; strings, booleans, NaN and infinities are
    refused."""
    return float(_frozen(value, ()))


def json_list(value, item=None) -> list:
    """A JSON array, each element passed through `item`."""
    if not isinstance(value, list):
        raise ConfigError(f"expected a list, got {value!r}")
    return value if item is None else [item(v) for v in value]


def _edge_id(value) -> str:
    """A nonempty string without the word separator '.'."""
    if not isinstance(value, str) or not value or "." in value:
        raise ConfigError(f"expected a nonempty string without '.', got {value!r}")
    return value


def _matrix(value, k: int) -> np.ndarray:
    linear = _frozen(value)
    if linear.ndim == 1:
        if linear.size != k * k:
            raise ConfigError(f"linear part needs {k * k} entries (row-major)")
        linear = linear.reshape(k, k)
    return _frozen(linear, (k, k))


def _parse_raw(raw: dict):
    json_object(raw, _TOP_FIELDS, "system config")
    k = json_field(raw, "dimension", "", lambda v: json_int(v, 1))

    def vector(value):
        return _frozen(value, (k,))

    vertices = []
    for i, rv in enumerate(json_field(raw, "vertices", "", json_list)):
        where = f"vertices[{i}]"
        json_object(rv, _VERTEX_FIELDS, where)
        vertices.append(VertexSpace(
            index=json_field(rv, "index", where, json_int),
            lower=json_field(rv, "lower", where, vector),
            upper=json_field(rv, "upper", where, vector),
            base_point=json_field(rv, "base_point", where, vector),
        ))

    edges = []
    for i, re_ in enumerate(json_field(raw, "edges", "", json_list)):
        where = f"edges[{i}]"
        json_object(re_, _EDGE_FIELDS, where)
        # the map first: its linear part must hold k*k numbers, which bounds
        # k before beta's default np.zeros(k) is allocated
        map_ = AffineMap(
            linear=json_field(re_, "linear", where, lambda v: _matrix(v, k)),
            offset=json_field(re_, "offset", where, vector))
        pw = f"{where}.prob"
        rp = json_object(json_field(re_, "prob", where), _PROB_FIELDS, pw)
        family = json_field(rp, "family", pw)
        alpha = json_field(rp, "alpha", pw, json_number)
        beta = json_field(rp, "beta", pw,
                          lambda v: vector([0.0] * k if v is None else v),
                          default=np.zeros(k))
        try:
            prob = ProbabilityFunction(family=family, alpha=alpha, beta=beta)
        except ConfigError as exc:
            raise ConfigError(f"{pw}: {exc}") from None
        edges.append(DirectedEdge(
            id=json_field(re_, "id", where, _edge_id),
            source=json_field(re_, "source", where, json_int),
            target=json_field(re_, "target", where, json_int),
            map=map_,
            prob=prob,
        ))

    support = json_field(
        raw, "support_set", "",
        lambda v: v if v is None else frozenset(json_list(v, json_int)),
        default=None)
    if support is None:
        support = frozenset(v.index for v in vertices)
    return k, tuple(vertices), tuple(edges), support


def _violations(vertices, edges, support) -> list[ValidationError]:
    violations: list[ValidationError] = []

    indices = sorted(v.index for v in vertices)
    if indices != list(range(1, len(vertices) + 1)):
        violations.append(ValidationError(
            f"vertex indices must be 1..{len(vertices)}, got {indices}"))
        return violations
    by_index = {v.index: v for v in vertices}

    for v in vertices:
        if not (np.all(v.lower <= v.upper)):
            violations.append(ValidationError(f"vertex {v.index}: empty region"))
        if not v.contains(v.base_point):
            violations.append(ValidationError(
                f"vertex {v.index}: base point outside region"))
    for va, vb in itertools.combinations(vertices, 2):
        overlaps = np.all(np.maximum(va.lower, vb.lower)
                          <= np.minimum(va.upper, vb.upper))
        if overlaps:
            violations.append(ValidationError(
                f"regions of vertices {va.index} and {vb.index} intersect"))

    if not support:
        violations.append(EmptySupport("support set is empty"))
    for i in support:
        if i not in by_index:
            violations.append(ValidationError(f"support set names unknown vertex {i}"))

    ids = [e.id for e in edges]
    if len(set(ids)) != len(ids):
        violations.append(ValidationError("edge ids are not unique"))
    for e in edges:
        if e.source not in by_index or e.target not in by_index:
            violations.append(ValidationError(f"edge {e.id}: unknown endpoint"))
            return violations

    out = {v.index: [e for e in edges if e.source == v.index] for v in vertices}
    for v in vertices:
        if not out[v.index]:
            violations.append(ValidationError(f"vertex {v.index} has no out-edge"))

    for e in edges:
        src, tgt = by_index[e.source], by_index[e.target]
        lo, hi = e.map.image_box(src.lower, src.upper)
        if (np.any(lo < tgt.lower - CONTAINMENT_TOL)
                or np.any(hi > tgt.upper + CONTAINMENT_TOL)):
            violations.append(RegionEscape(
                f"edge {e.id}: image box {lo.tolist()}..{hi.tolist()} leaves "
                f"region of vertex {e.target}"))
    for e in edges:
        src = by_index[e.source]
        lo, hi = box_range(e.prob.alpha, e.prob.beta, src.lower, src.upper)
        if lo <= 0.0:
            violations.append(NonPositiveProbability(
                f"edge {e.id}: probability {lo:.6g} <= 0 on source region"))
        if hi > 1.0 + COEFF_TOL:
            violations.append(NonPositiveProbability(
                f"edge {e.id}: probability {hi:.6g} > 1 on source region"))

    # normalization: symbolic on the coefficients, then exact on the region,
    # where coefficient sums within COEFF_TOL still add up on large boxes
    for v in vertices:
        if not out[v.index]:
            continue
        alpha_sum, beta_sum, gap = _normalization(v, out[v.index])
        if abs(alpha_sum - 1.0) > COEFF_TOL or np.any(np.abs(beta_sum) > COEFF_TOL):
            violations.append(NormalizationError(
                f"vertex {v.index}: out-edge probabilities sum to "
                f"{alpha_sum:.12g} + {beta_sum.tolist()} . x, not identically 1"))
            continue
        if gap > CONTAINMENT_TOL:
            violations.append(NormalizationError(
                f"vertex {v.index}: out-edge probabilities sum to 1 only within "
                f"{gap:.3g} on the region"))

    return violations


def _normalization(vertex: VertexSpace, out) -> tuple[float, np.ndarray, float]:
    """The coefficient sums alpha and beta of the out-edge probabilities
    `out` of `vertex`, and the largest |sum_e p_e(x) - 1| on its region,
    exact by box_range."""
    alpha_sum = math.fsum(e.prob.alpha for e in out)
    beta_sum = np.sum([e.prob.beta for e in out], axis=0)
    lo, hi = box_range(alpha_sum - 1.0, beta_sum, vertex.lower, vertex.upper)
    return alpha_sum, beta_sum, max(-lo, hi)


def collect_violations(raw: dict) -> list[ValidationError]:
    """All structural violations of a raw config, empty if it is valid."""
    _, vertices, edges, support = _parse_raw(raw)
    return _violations(vertices, edges, support)


def validate_system(raw: dict) -> MarkovSystem:
    """Parse and validate a raw config, raising the first violation found."""
    k, vertices, edges, support = _parse_raw(raw)
    violations = _violations(vertices, edges, support)
    if violations:
        raise violations[0]
    return MarkovSystem(dimension=k, vertices=vertices, edges=edges,
                        support_set=support)


def system_to_config(sys: MarkovSystem) -> dict:
    """Round-trippable config dict (exact float round trip through JSON)."""
    return {
        "dimension": sys.dimension,
        "vertices": [
            {
                "index": v.index,
                "lower": v.lower.tolist(),
                "upper": v.upper.tolist(),
                "base_point": v.base_point.tolist(),
            }
            for v in sys.vertices
        ],
        "edges": [
            {
                "id": e.id,
                "source": e.source,
                "target": e.target,
                "linear": e.map.linear.ravel().tolist(),
                "offset": e.map.offset.tolist(),
                "prob": {
                    "family": e.prob.family,
                    "alpha": e.prob.alpha,
                    "beta": e.prob.beta.tolist(),
                },
            }
            for e in sys.edges
        ],
        "support_set": sorted(sys.support_set),
    }



# ---------------------------------------------------------------------------
# derived constants

@dataclass(frozen=True)
class ConstantSet:
    """Geometry and continuity constants of a validated system.

    a               max Lipschitz constant over edge maps
    delta           lower bound of all probability functions on their regions
    d               max displacement of a base point under one edge map
    b               max over regions of expected one-step base displacement
    c_hat           mean distance to the local base point under the measure
    dini_sum_half   sum of modulus(a^(i/2) c_hat) over i >= 0
    dini_sum_full   sum of modulus(a^i d/(1-a)) over i >= 0
    """

    a: float
    delta: float
    d: float
    b: float
    c_hat: float
    dini_sum_half: float
    dini_sum_full: float


def modulus_geometric_sum(sys: MarkovSystem, ratio: float,
                          scale: float) -> float:
    """Sum of modulus(ratio^i * scale) over i >= 0, in closed form.

    The global modulus is min(slope * t, 1), so the series is its terms at
    the cap, each 1, then the geometric tail x / (1 - ratio) from the first
    term x below the cap.  Raises DiniDivergence unless 0 <= ratio < 1.
    """
    if not 0.0 <= ratio < 1.0:
        raise DiniDivergence(f"modulus series diverges at ratio {ratio:g}")
    if not 0.0 <= scale < math.inf:
        raise ValueError(f"scale must be finite and nonnegative, got {scale!r}")
    slope = sys.max_gradient_norm
    # count the capped terms up from just below the logarithms' rounded count
    capped = 0
    if slope * scale > 1.0 and ratio > 0.0:
        capped = int(math.log(slope * scale) / -math.log(ratio)) - 1
    while slope * ratio ** capped * scale >= 1.0:
        capped += 1
    return capped + slope * ratio ** capped * scale / (1.0 - ratio)


def estimate_c_hat(sys: MarkovSystem, mu: "EmpiricalMeasure") -> float:
    """Weighted average distance of mu atoms to their vertex base points."""
    by_index = np.zeros((max(v.index for v in sys.vertices) + 1, sys.dimension))
    for v in sys.vertices:
        by_index[v.index] = v.base_point
    return mu.average(np.linalg.norm(mu.points - by_index[mu.vertices], axis=1))


def derive_constants(sys: MarkovSystem, mu: "EmpiricalMeasure") -> ConstantSet:
    """Compute the full constant set; requires uniform contraction (a < 1)."""
    a = sys.contraction_rate
    if a >= 1.0:
        raise NoContraction(
            f"max edge Lipschitz constant is {a:.6g}; constants are only "
            f"defined for uniformly contractive systems")

    delta = min(box_range(e.prob.alpha, e.prob.beta, sys.vertex(e.source).lower,
                          sys.vertex(e.source).upper)[0]
                for e in sys.edges)
    d = sys.max_displacement

    # b: the expected one-step displacement sum_e disp_e p_e(x) is affine in x
    b = 0.0
    for v in sys.vertices:
        edges = sys.out_edges(v.index)
        disp = [sys.displacement(e) for e in edges]
        alpha = sum(c * e.prob.alpha for e, c in zip(edges, disp))
        beta = np.sum([c * e.prob.beta for e, c in zip(edges, disp)], axis=0)
        b = max(b, box_range(alpha, beta, v.lower, v.upper)[1])

    c_hat = estimate_c_hat(sys, mu)
    half = modulus_geometric_sum(sys, math.sqrt(a), c_hat)
    full = modulus_geometric_sum(sys, a, d / (1.0 - a))
    return ConstantSet(a=a, delta=delta, d=d, b=b, c_hat=c_hat,
                       dini_sum_half=half, dini_sum_full=full)
