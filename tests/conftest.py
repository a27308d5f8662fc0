from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import cmslab as cl
import cmslab.cli  # noqa: F401  (in LOCAL_MODULES, as the tests use it)

THIRD = 1.0 / 3.0
ROOT = Path(__file__).resolve().parents[1]


def bench_module(name: str):
    """bench/<name>.py, loaded once and kept in sys.modules as
    bench_<name>."""
    module = sys.modules.get(f"bench_{name}")
    if module is None:
        spec = importlib.util.spec_from_file_location(
            f"bench_{name}", ROOT / "bench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    return module


def local_modules() -> set[str]:
    """Names of the loaded modules whose source is in src/ or bench/."""
    return {name for name, module in list(sys.modules.items())
            if any(Path(getattr(module, "__file__", None) or "/")
                   .is_relative_to(ROOT / part) for part in ("src", "bench"))}


# Hypothesis draws about 5 % of its numbers from the constants of the local
# modules in sys.modules, so a derandomized property draws different
# examples after a test loads another one.  Every module the tests load is
# loaded here, before any test, so the draws do not depend on which tests
# ran first.
bench_module("workloads")
bench_module("tracing")
LOCAL_MODULES = local_modules()

_ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def sys_a_config() -> dict:
    """One unit box, two halving maps, fair constant coin."""
    return {
        "dimension": 1,
        "vertices": [
            {"index": 1, "lower": [0.0], "upper": [1.0], "base_point": [0.0]},
        ],
        "edges": [
            {"id": "e1", "source": 1, "target": 1, "linear": [0.5],
             "offset": [0.0], "prob": {"family": "constant", "alpha": 0.5}},
            {"id": "e2", "source": 1, "target": 1, "linear": [0.5],
             "offset": [0.5], "prob": {"family": "constant", "alpha": 0.5}},
        ],
        "support_set": [1],
    }


def sys_b_config() -> dict:
    """Same maps as A with affine place-dependent probabilities."""
    cfg = sys_a_config()
    cfg["edges"][0]["prob"] = {"family": "affine", "alpha": 1.0 / 3.0,
                               "beta": [1.0 / 3.0]}
    cfg["edges"][1]["prob"] = {"family": "affine", "alpha": 2.0 / 3.0,
                               "beta": [-1.0 / 3.0]}
    return cfg


def sys_c_config() -> dict:
    """Two separated boxes, slope-1/3 maps between every pair, fair coin.

    Offsets are chosen so each base point maps onto a base point bit-exactly,
    which makes every derived displacement exactly zero.
    """
    return {
        "dimension": 1,
        "vertices": [
            {"index": 1, "lower": [0.0], "upper": [1.0], "base_point": [0.0]},
            {"index": 2, "lower": [2.0], "upper": [3.0], "base_point": [2.0]},
        ],
        "edges": [
            {"id": "c11", "source": 1, "target": 1, "linear": [THIRD],
             "offset": [0.0], "prob": {"family": "constant", "alpha": 0.5}},
            {"id": "c12", "source": 1, "target": 2, "linear": [THIRD],
             "offset": [2.0], "prob": {"family": "constant", "alpha": 0.5}},
            {"id": "c21", "source": 2, "target": 1, "linear": [THIRD],
             "offset": [-(2.0 * THIRD)], "prob": {"family": "constant", "alpha": 0.5}},
            {"id": "c22", "source": 2, "target": 2, "linear": [THIRD],
             "offset": [2.0 - 2.0 * THIRD], "prob": {"family": "constant", "alpha": 0.5}},
        ],
        "support_set": [1, 2],
    }


def one_loop_config() -> dict:
    """Sys A's first halving map alone: one vertex, one edge, so one word
    per depth."""
    cfg = sys_a_config()
    cfg["edges"] = cfg["edges"][:1]
    cfg["edges"][0]["prob"]["alpha"] = 1.0
    return cfg


def loop_into_loop_config() -> dict:
    """Sys C without the edge back to vertex 1: a loop feeding a second
    loop, so depth n has n + 2 words, and the vertex chain's one stationary
    law sits on vertex 2."""
    cfg = sys_c_config()
    cfg["edges"] = [e for e in cfg["edges"] if e["id"] != "c21"]
    cfg["edges"][-1]["prob"]["alpha"] = 1.0
    return cfg


def no_in_edge_config() -> dict:
    """Vertex 1 feeds vertex 2 by e1 and no edge enters it; vertex 2 holds
    two halving self-loops e2 and e3 at 0.5.  So no admissible word has
    an edge before e1."""
    def edge(eid, source, offset, alpha):
        return {"id": eid, "source": source, "target": 2, "linear": [0.5],
                "offset": [offset],
                "prob": {"family": "constant", "alpha": alpha}}

    return {
        "dimension": 1,
        "vertices": [
            {"index": 1, "lower": [0.0], "upper": [1.0], "base_point": [0.0]},
            {"index": 2, "lower": [2.0], "upper": [3.0], "base_point": [2.0]},
        ],
        "edges": [edge("e1", 1, 2.0, 1.0), edge("e2", 2, 1.0, 0.5),
                  edge("e3", 2, 1.5, 0.5)],
        "support_set": [1, 2],
    }


def ring_config(n: int = 100) -> dict:
    """n unit boxes on a line, vertex v feeding v + 1 and v + 2 (mod n) by
    halving maps at 0.5 each, so depth d has n 2^d words."""
    def edge(source, step):
        target = (source + step - 1) % n + 1
        return {"id": f"r{source}s{step}", "source": source, "target": target,
                "linear": [0.5], "offset": [2.0 * target - source],
                "prob": {"family": "constant", "alpha": 0.5}}

    return {
        "dimension": 1,
        "vertices": [{"index": v, "lower": [2.0 * v], "upper": [2.0 * v + 1],
                      "base_point": [2.0 * v]} for v in range(1, n + 1)],
        "edges": [edge(v, step) for v in range(1, n + 1) for step in (1, 2)],
        "support_set": list(range(1, n + 1)),
    }


@pytest.fixture(scope="session")
def sys_a() -> cl.MarkovSystem:
    return cl.validate_system(sys_a_config())


@pytest.fixture(scope="session")
def sys_b() -> cl.MarkovSystem:
    return cl.validate_system(sys_b_config())


@pytest.fixture(scope="session")
def sys_c() -> cl.MarkovSystem:
    return cl.validate_system(sys_c_config())


@pytest.fixture(scope="session")
def mu_a(sys_a) -> cl.EmpiricalMeasure:
    return cl.pushforward_measure(sys_a)


@pytest.fixture(scope="session")
def mu_b(sys_b) -> cl.EmpiricalMeasure:
    return cl.pushforward_measure(sys_b)


@pytest.fixture(scope="session")
def mu_c(sys_c) -> cl.EmpiricalMeasure:
    return cl.pushforward_measure(sys_c)


@pytest.fixture(scope="session")
def constants_a(sys_a, mu_a) -> cl.ConstantSet:
    return cl.derive_constants(sys_a, mu_a)


@pytest.fixture(scope="session")
def constants_b(sys_b, mu_b) -> cl.ConstantSet:
    return cl.derive_constants(sys_b, mu_b)


@pytest.fixture(scope="session")
def constants_c(sys_c, mu_c) -> cl.ConstantSet:
    return cl.derive_constants(sys_c, mu_c)


# --- each reader on a walk of its own ----------------------------------------

def table_of(sys_, n: int, measure) -> cl.CylinderTable:
    """build_table on a walk of its own to depth n."""
    return cl.build_table(cl.walk_cylinders(sys_, n, measure), n)


def kstar_of(sys_, window: int, depth: int, measure) -> float:
    """kstar_estimate on a walk of its own to depth + window."""
    return cl.kstar_estimate(sys_, window, depth,
                             cl.walk_cylinders(sys_, depth + window, measure))


def m_of(sys_, q: cl.CylinderSet, measure) -> float:
    """m_of_cylinder_set on a depth-1 walk of its own, which folds q's words
    past depth 1."""
    return cl.m_of_cylinder_set(cl.walk_cylinders(sys_, 1, measure), q)


def cover_of(sys_, q: cl.CylinderSet, max_shift: int, max_depth: int,
             **kwargs):
    """phi_upper on a base walk of its own (no chain measure) to the depth
    of q's cover window; it folds the charged words past that depth."""
    depth = cl.cover.window_depth(q.depth, max_shift, max_depth)
    return cl.phi_upper(cl.walk_cylinders(sys_, depth, None), q, max_shift,
                        max_depth, **kwargs)


def fold_calls(monkeypatch) -> list[list[tuple]]:
    """Record the words of every fold (cylinders._fold) in order, one list
    per call: the words a Walk reads past its depth."""
    calls, fold = [], cl.cylinders._fold

    def recording(sys_, measure, words):
        words = [tuple(w) for w in words]
        calls.append(words)
        return fold(sys_, measure, words)

    monkeypatch.setattr(cl.cylinders, "_fold", recording)
    return calls
