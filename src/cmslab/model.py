"""System definition, validation, and derived constants.

A system is a finite directed graph whose vertices carry axis-aligned box
regions in R^k with a marked base point, and whose edges carry an affine map
from the source region into the target region together with a probability
function (constant or affine) over the source region.  Out-edge probabilities
at each vertex sum identically to 1.

Configs are plain JSON objects; see ``system_from_config`` for the exact
schema.  Validated systems are immutable and safe to share across workers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DiniDivergence,
    EmptySupport,
    NoContraction,
    NonPositiveProbability,
    NormalizationError,
    RegionEscape,
    ValidationError,
)

if TYPE_CHECKING:
    from .simulate import EmpiricalMeasure

GRID_POINTS_PER_AXIS = 5
CONTAINMENT_TOL = 1e-9
COEFF_TOL = 1e-12
DINI_MAX_TERMS = 1_000_000


def _frozen(values, shape=None) -> np.ndarray:
    arr = np.array(values, dtype=float)
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

    @property
    def lipschitz_constant(self) -> float:
        """Spectral norm of the linear part.

        Closed form for k <= 2, power iteration on A^T A (relative
        tolerance 1e-12) above that.
        """
        return spectral_norm(self.linear)


def spectral_norm(a: np.ndarray) -> float:
    k = a.shape[0]
    if k == 1:
        return abs(float(a[0, 0]))
    if k == 2:
        g = a.T @ a
        t = float(g[0, 0] + g[1, 1])
        det = float(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])
        disc = max(t * t - 4.0 * det, 0.0)
        return math.sqrt(max((t + math.sqrt(disc)) / 2.0, 0.0))
    return _power_iteration_norm(a)


def _power_iteration_norm(a: np.ndarray, rel_tol: float = 1e-12,
                          max_iter: int = 100_000) -> float:
    g = a.T @ a
    k = g.shape[0]
    # deterministic start, slightly asymmetric so it is not orthogonal to
    # the dominant eigenvector of typical matrices
    v = np.ones(k) + 1e-3 * np.arange(k)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = g @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        new_lam = float(v @ (g @ v))
        if abs(new_lam - lam) <= rel_tol * max(new_lam, 1e-300):
            lam = new_lam
            break
        lam = new_lam
    return math.sqrt(max(lam, 0.0))


@dataclass(frozen=True, eq=False)
class ProbabilityFunction:
    """Constant or affine probability over a source region.

    value(x) = alpha + beta . x; the oscillation modulus over points at
    distance <= t is min(|beta| t, 1) for the affine family and 0 for the
    constant family.
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

    def modulus(self, t: float) -> float:
        """Largest oscillation over pairs of points at distance <= t."""
        if self.family == "constant":
            return 0.0
        return min(self.gradient_norm * t, 1.0)

    @property
    def is_constant(self) -> bool:
        return self.family == "constant" or not np.any(self.beta != 0.0)


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

    def corners(self) -> Iterable[np.ndarray]:
        for combo in itertools.product(*zip(self.lower, self.upper)):
            yield np.array(combo)

    def grid(self, points_per_axis: int = GRID_POINTS_PER_AXIS) -> np.ndarray:
        """Deterministic validation grid, (points_per_axis^k, k).

        Endpoints are included, so every corner is a grid point.
        """
        axes = [np.linspace(lo, hi, points_per_axis)
                for lo, hi in zip(self.lower, self.upper)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


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
        """Out-edges sorted by edge id; the canonical sampling order."""
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

    def modulus(self, t: float) -> float:
        """Global oscillation modulus: max of the per-edge moduli."""
        return max(e.prob.modulus(t) for e in self.edges)

    @property
    def max_gradient_norm(self) -> float:
        return max(e.prob.gradient_norm for e in self.edges)

    def is_admissible(self, word: Sequence[str]) -> bool:
        try:
            edges = [self.edge(i) for i in word]
        except KeyError:
            return False
        return all(edges[j].target == edges[j + 1].source
                   for j in range(len(edges) - 1))

    def require_admissible(self, word: Sequence[str]) -> tuple[DirectedEdge, ...]:
        from .errors import InadmissibleWord

        try:
            edges = tuple(self.edge(i) for i in word)
        except KeyError as exc:
            raise InadmissibleWord(str(exc)) from None
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


def _reject_unknown(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown fields in {where}: {sorted(unknown)}")


def _parse_raw(raw: dict):
    if not isinstance(raw, dict):
        raise ConfigError("system config must be a JSON object")
    _reject_unknown(raw, _TOP_FIELDS, "system config")
    try:
        k = int(raw["dimension"])
        raw_vertices = raw["vertices"]
        raw_edges = raw["edges"]
    except KeyError as exc:
        raise ConfigError(f"missing config field {exc}") from None
    if k < 1:
        raise ConfigError("dimension must be >= 1")

    vertices = []
    for rv in raw_vertices:
        _reject_unknown(rv, _VERTEX_FIELDS, f"vertex {rv.get('index')}")
        vertices.append(VertexSpace(
            index=int(rv["index"]),
            lower=_frozen(rv["lower"], (k,)),
            upper=_frozen(rv["upper"], (k,)),
            base_point=_frozen(rv["base_point"], (k,)),
        ))

    edges = []
    for re_ in raw_edges:
        _reject_unknown(re_, _EDGE_FIELDS, f"edge {re_.get('id')}")
        rp = re_["prob"]
        _reject_unknown(rp, _PROB_FIELDS, f"prob of edge {re_.get('id')}")
        beta = rp.get("beta")
        if beta is None:
            beta = [0.0] * k
        linear = np.asarray(re_["linear"], dtype=float)
        if linear.ndim == 1:
            if linear.size != k * k:
                raise ConfigError(
                    f"edge {re_['id']!r}: linear part needs {k * k} entries (row-major)")
            linear = linear.reshape(k, k)
        edges.append(DirectedEdge(
            id=str(re_["id"]),
            source=int(re_["source"]),
            target=int(re_["target"]),
            map=AffineMap(linear=linear, offset=_frozen(re_["offset"], (k,))),
            prob=ProbabilityFunction(family=rp["family"],
                                     alpha=float(rp["alpha"]),
                                     beta=_frozen(beta, (k,))),
        ))

    support = raw.get("support_set")
    if support is None:
        support = [v.index for v in vertices]
    return k, tuple(vertices), tuple(edges), frozenset(int(i) for i in support)


def collect_violations(raw: dict) -> list[ValidationError]:
    """All structural violations of a raw config, empty if it is valid."""
    k, vertices, edges, support = _parse_raw(raw)
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

    # region escape: affine image of a box is the convex hull of the corner
    # images, so the corner check is exact; the grid is a redundancy check
    for e in edges:
        if e.source not in by_index or e.target not in by_index:
            continue
        src, tgt = by_index[e.source], by_index[e.target]
        pts = np.vstack([src.grid(), list(src.corners())])
        images = e.map.apply_many(pts)
        inside = np.all((images >= tgt.lower - CONTAINMENT_TOL)
                        & (images <= tgt.upper + CONTAINMENT_TOL), axis=1)
        if not np.all(inside):
            bad = pts[np.argmin(inside)]
            violations.append(RegionEscape(
                f"edge {e.id}: image of {bad.tolist()} leaves region of "
                f"vertex {e.target}"))

    # probability range at corners; min over corners equals min over the box
    # for the affine family
    for e in edges:
        if e.source not in by_index:
            continue
        src = by_index[e.source]
        vals = [e.prob.value(c) for c in src.corners()]
        if min(vals) <= 0.0:
            violations.append(NonPositiveProbability(
                f"edge {e.id}: probability {min(vals):.6g} <= 0 on source region"))
        if max(vals) > 1.0 + COEFF_TOL:
            violations.append(NonPositiveProbability(
                f"edge {e.id}: probability {max(vals):.6g} > 1 on source region"))

    # normalization, symbolic then numeric on the grid
    for v in vertices:
        if not out[v.index]:
            continue
        alpha_sum = math.fsum(e.prob.alpha for e in out[v.index])
        beta_sum = np.sum([e.prob.beta for e in out[v.index]], axis=0)
        if abs(alpha_sum - 1.0) > COEFF_TOL or np.any(np.abs(beta_sum) > COEFF_TOL):
            violations.append(NormalizationError(
                f"vertex {v.index}: out-edge probabilities sum to "
                f"{alpha_sum:.12g} + {beta_sum.tolist()} . x, not identically 1"))
            continue
        grid = v.grid()
        total = np.sum([e.prob.value_many(grid) for e in out[v.index]], axis=0)
        if np.any(np.abs(total - 1.0) > CONTAINMENT_TOL):
            violations.append(NormalizationError(
                f"vertex {v.index}: grid normalization check failed"))

    return violations


def validate_system(raw: dict) -> MarkovSystem:
    """Parse and validate a raw config, raising the first violation found."""
    violations = collect_violations(raw)
    if violations:
        raise violations[0]
    k, vertices, edges, support = _parse_raw(raw)
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


system_from_config = validate_system


# ---------------------------------------------------------------------------
# derived constants

@dataclass(frozen=True)
class ConstantSet:
    """Geometry and continuity constants of a validated system.

    a               max Lipschitz constant over edge maps
    delta           lower bound of all probability functions on their regions
    d               max displacement of a base point under one edge map
    b               max over regions of expected one-step base displacement
    c_hat           sampled average distance to the local base point
    c_hat_stderr    Monte Carlo standard error of c_hat
    dini_sum_half   sum of modulus(a^(i/2) c_hat) over i >= 0
    dini_sum_full   sum of modulus(a^i d/(1-a)) over i >= 0
    """

    a: float
    delta: float
    d: float
    b: float
    c_hat: float
    c_hat_stderr: float
    dini_sum_half: float
    dini_sum_full: float


def modulus_geometric_sum(sys: MarkovSystem, ratio: float, scale: float,
                          tail_tol: float) -> float:
    """Truncated sum of modulus(ratio^i * scale) over i >= 0.

    The global modulus is capped linear, so once a term is below the cap the
    remaining tail is dominated by a geometric series; truncation stops when
    that tail bound drops below tail_tol.  Raises DiniDivergence if the stop
    rule is not met within a million terms.
    """
    if tail_tol <= 0.0:
        raise ValueError("tail_tol must be positive")
    if scale < 0.0:
        raise ValueError("scale must be nonnegative")
    slope = sys.max_gradient_norm
    if slope == 0.0 or scale == 0.0:
        return 0.0
    terms = []
    t = scale
    for _ in range(DINI_MAX_TERMS):
        term = sys.modulus(t)
        terms.append(term)
        if 0.0 <= ratio < 1.0 and slope * t <= 1.0:
            tail_bound = term * ratio / (1.0 - ratio)
            if tail_bound < tail_tol:
                return math.fsum(terms)
        t = ratio * t
    raise DiniDivergence(
        f"modulus series did not meet tail tolerance {tail_tol:g} "
        f"within {DINI_MAX_TERMS} terms (ratio {ratio:g})")


def estimate_c_hat(sys: MarkovSystem, mu: "EmpiricalMeasure") -> tuple[float, float]:
    """Weighted average distance of mu samples to their vertex base points."""
    by_index = np.zeros((max(v.index for v in sys.vertices) + 1, sys.dimension))
    for v in sys.vertices:
        by_index[v.index] = v.base_point
    dist = np.linalg.norm(mu.points - by_index[mu.vertices], axis=1)
    value = float(mu.weights @ dist)
    stderr = float(np.sqrt(np.sum((mu.weights * (dist - value)) ** 2)))
    return value, stderr


def derive_constants(sys: MarkovSystem, mu: "EmpiricalMeasure",
                     tail_tol: float = 1e-12) -> ConstantSet:
    """Compute the full constant set; requires uniform contraction (a < 1)."""
    if len(mu.weights) == 0:
        raise ValueError("empirical measure is empty")

    a = sys.contraction_rate
    if a >= 1.0:
        raise NoContraction(
            f"max edge Lipschitz constant is {a:.6g}; constants are only "
            f"defined for uniformly contractive systems")

    delta = min(min(e.prob.value(c) for c in sys.vertex(e.source).corners())
                for e in sys.edges)
    d = sys.max_displacement

    # b: the summand is affine in x, so the grid (which contains every
    # corner) attains the true maximum
    b = 0.0
    for v in sys.vertices:
        edges = sys.out_edges(v.index)
        disp = np.array([sys.displacement(e) for e in edges])
        grid = v.grid()
        vals = np.sum([e.prob.value_many(grid) * c
                       for e, c in zip(edges, disp)], axis=0)
        b = max(b, float(np.max(vals)))

    c_hat, c_stderr = estimate_c_hat(sys, mu)
    half = modulus_geometric_sum(sys, math.sqrt(a), c_hat, tail_tol)
    full = modulus_geometric_sum(sys, a, d / (1.0 - a), tail_tol)
    return ConstantSet(a=a, delta=delta, d=d, b=b, c_hat=c_hat,
                       c_hat_stderr=c_stderr, dini_sum_half=half,
                       dini_sum_full=full)
