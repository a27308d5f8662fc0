from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest

import cmslab as cl

from conftest import bench_module, cover_of, fold_calls, m_of
from oracles import brute_min_cover_cost, enumerate_paths, plain_cover_search


def _oracle_pieces(sys_, q, max_shift, max_depth):
    """Independent expansion of the piece pool to (cost, bitmask) pairs."""
    triples = [(e.id, e.source, e.target) for e in sys_.edges]
    lo = 1 - max_shift
    hi = max(q.depth, max_depth)
    universe = enumerate_paths(triples, hi - lo + 1)
    index = {w: i for i, w in enumerate(universe)}

    def mask_of(shift, word):
        offset = 1 + shift - lo
        mask = 0
        for w, i in index.items():
            if w[offset:offset + len(word)] == word:
                mask |= 1 << i
        return mask

    target = 0
    for w in q.words:
        target |= mask_of(0, w)

    pieces = []
    for shift in range(0, -max_shift - 1, -1):
        for length in range(1, max_depth + 1):
            for word in enumerate_paths(triples, length):
                cost = cl.phi0_cyl(sys_, word)
                mask = mask_of(shift, word)
                if mask:
                    pieces.append((cost, mask))
    return target, pieces


def test_whole_space_cost_one_sys_a(sys_a):
    q = cl.full_cylinder_set(sys_a, 3)
    cost, candidate = cover_of(sys_a, q, max_shift=2, max_depth=3)
    assert cost == 1.0
    assert candidate.exhaustive
    target, pieces = _oracle_pieces(sys_a, q, 2, 3)
    assert brute_min_cover_cost(target, pieces) == 1.0


def test_single_cylinder_trivial_cover_sys_a(sys_a):
    q = cl.cylinder_set(sys_a, [("e1", "e2")])
    cost, candidate = cover_of(sys_a, q, max_shift=2, max_depth=3)
    assert cost == 0.25
    assert candidate.exhaustive
    target, pieces = _oracle_pieces(sys_a, q, 2, 3)
    assert brute_min_cover_cost(target, pieces) == 0.25


def test_whole_space_cost_one_sys_c(sys_c):
    q = cl.full_cylinder_set(sys_c, 2)
    cost, candidate = cover_of(sys_c, q, max_shift=1, max_depth=2)
    assert cost == pytest.approx(1.0, abs=1e-12)
    assert candidate.exhaustive
    target, pieces = _oracle_pieces(sys_c, q, 1, 2)
    assert brute_min_cover_cost(target, pieces) == pytest.approx(cost, abs=1e-12)


def test_result_never_exceeds_trivial_cover(sys_b):
    for words in ([("e1",)], [("e1", "e2"), ("e2", "e2")],
                  [("e2", "e1", "e1")]):
        q = cl.cylinder_set(sys_b, words)
        trivial = math.fsum(cl.phi0_cyl(sys_b, w) for w in words)
        cost, _ = cover_of(sys_b, q, 1, max(len(w) for w in words))
        assert cost <= trivial + 1e-15


@pytest.mark.parametrize("name", ["sys_a", "sys_b", "sys_c"])
def test_query_window_search_matches_full_window_oracle(name, request):
    """Seeded random queries: the search on the query's window words finds
    the brute-force minimum over the full window's pieces, or the trivial
    cover when that is cheaper."""
    sys_ = request.getfixturevalue(name)
    rng = random.Random(name)
    for max_shift in range(3):
        for depth in range(1, 4):
            words = cl.enumerate_words(sys_, depth)
            for _ in range(2):
                q = cl.cylinder_set(sys_, rng.sample(words, rng.randint(1, 2)))
                max_depth = rng.randint(1, 3)
                cost, candidate = cover_of(sys_, q, max_shift, max_depth)
                assert candidate.exhaustive
                target, pieces = _oracle_pieces(sys_, q, max_shift, max_depth)
                trivial = math.fsum(cl.phi0_cyl(sys_, w) for w in q.words)
                oracle = min(brute_min_cover_cost(target, pieces), trivial)
                assert cost == pytest.approx(oracle, abs=1e-12), (q, max_shift,
                                                                   max_depth)


def test_deep_one_word_query_searches_its_own_window(sys_a):
    # the full depth-31 window would hold 2^31 words, past the word cap
    word = ("e1",) * 30
    q = cl.cylinder_set(sys_a, [word])
    cost, candidate = cover_of(sys_a, q, 1, 3)
    assert cost == cl.phi0_cyl(sys_a, word)
    assert candidate.exhaustive
    cl.verify_cover(sys_a, q, candidate)


def test_window_past_word_cap_raises_depth_overflow(sys_a, monkeypatch):
    q = cl.full_cylinder_set(sys_a, 3)
    monkeypatch.setattr(cl.cylinders, "WORD_CAP", 4)
    with pytest.raises(cl.DepthOverflow):
        cover_of(sys_a, q, 0, 3)
    cover_of(sys_a, cl.cylinder_set(sys_a, [("e1", "e2", "e1")]), 1, 3)


def test_search_node_counts_are_pinned(sys_b, sys_c):
    """Node counts of the search with its dominance memo and per-word bound
    (the plain search took 2113, 338 and 93); the query window keeps the
    whole window's word order and disjointness verdicts, so the branch and
    bound visits the same nodes on either."""
    for sys_, words, nodes in (
            (sys_b, cl.enumerate_words(sys_b, 3), 520),
            (sys_b, [("e1", "e2"), ("e2", "e2")], 171),
            (sys_c, [("c11", "c12"), ("c12", "c21")], 36)):
        _, candidate = cover_of(sys_, cl.cylinder_set(sys_, words), 2, 3)
        assert (candidate.nodes_explored, candidate.exhaustive) == (nodes, True)


def _same_as_plain_search(sys_, q, max_shift, max_depth, budget):
    """The search finishes, and wherever the plain search finishes within
    `budget` too, both find the same cost and pieces; returns both."""
    cost, candidate = cover_of(sys_, q, max_shift, max_depth)
    plain = plain_cover_search(sys_, q, max_shift, max_depth, budget)
    assert candidate.exhaustive
    assert cost <= plain[0]
    if plain[2]:
        assert (cost, candidate.pieces) == plain[:2], (q, max_shift, max_depth)
    return candidate, plain


@pytest.mark.parametrize("name", ["sys_a", "sys_b", "sys_c"])
def test_search_matches_the_plain_search(name, request):
    """The memo and the bound cut only subtrees that cannot beat the
    incumbent: on whole-space and seeded random queries the search returns
    the plain branch and bound's cover wherever that one finishes."""
    sys_ = request.getfixturevalue(name)
    rng = random.Random(name)
    for max_shift in range(3):
        for depth in range(1, 4):
            words = cl.enumerate_words(sys_, depth)
            for q in (cl.full_cylinder_set(sys_, depth),
                      cl.cylinder_set(sys_, rng.sample(
                          words, rng.randint(1, min(2, len(words)))))):
                for max_depth in range(1, 4):
                    _same_as_plain_search(sys_, q, max_shift, max_depth,
                                          50_000)


def _workload_system(workload: str, seed: int):
    """The benchmark workload's system on a seed, as bench/workloads.py
    generates it."""
    module = bench_module("workloads")
    rng = np.random.default_rng([seed, module.WORKLOADS.index(workload)])
    return cl.validate_system(module.make_system(
        rng, module.SIZES[workload]["full"]["k"],
        affine=workload != "exact_cover"))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("workload, depth, max_shift, max_depth",
                         [("exact_cover", 1, 2, 3), ("mc_affine", 2, 1, 3)])
def test_workload_whole_space_search_finishes(workload, depth, max_shift,
                                              max_depth, seed):
    """The benchmark's whole-space queries: the plain search finishes on
    mc_affine (in 76k-229k nodes) but not on exact_cover (it is still
    running at 1M nodes, and here it is stopped at 10k); the search finishes
    on both, in at most 60k nodes, never above the plain search's cost."""
    sys_ = _workload_system(workload, seed)
    candidate, plain = _same_as_plain_search(
        sys_, cl.full_cylinder_set(sys_, depth), max_shift, max_depth,
        250_000 if workload == "mc_affine" else 10_000)
    assert plain[2] == (workload == "mc_affine")
    assert candidate.nodes_explored <= 60_000


def test_phi_upper_charges_each_word_once(sys_c, monkeypatch):
    """Regression guard by counting: given a depth-1 walk, the pool, the
    trivial seed and the final cost read the words of depth 1 from it and
    one fold of the other words, each once, whatever the number of shifts,
    and the check of the cover folds no more; given a walk that holds every
    word charged, it folds none and returns the same cover."""
    folds = fold_calls(monkeypatch)
    for q, max_shift, max_depth in (
            (cl.full_cylinder_set(sys_c, 2), 2, 3),
            (cl.cylinder_set(sys_c, [("c12", "c21", "c11", "c12")]), 1, 2)):
        full = cl.walk_cylinders(sys_c, max(max_depth, q.depth), cl.EXACT)
        folds.clear()
        found = cl.phi_upper(cl.walk_cylinders(sys_c, 1, None), q, max_shift,
                             max_depth)
        (searched,) = folds  # one fold of words per phi_upper
        deeper = {w for n in range(2, max_depth + 1)
                  for w in cl.enumerate_words(sys_c, n)}
        assert len(searched) == len(set(searched))
        assert set(searched) <= deeper | set(q.words)
        assert {w for _, w in found[1].pieces if len(w) > 1} <= set(searched)
        folds.clear()
        assert cl.phi_upper(full, q, max_shift, max_depth) == found
        assert folds == []


def test_phi_upper_charges_only_words_of_pieces_that_meet_the_query(
        sys_a, monkeypatch):
    """With no shift, a one-word query at depth 2 meets only the pieces e1
    and e1.e2; no other word of depth <= 2 is charged: the search asks its
    walk for both, once.  Given a walk that holds e1 but not e1.e2, it
    folds e1.e2 alone; given one that holds both, it folds nothing."""
    asked, along = [], cl.Walk.along

    def asking(walk, words):
        found = along(walk, words)
        asked.append(sorted(found))
        return found

    monkeypatch.setattr(cl.Walk, "along", asking)
    folds = fold_calls(monkeypatch)
    q = cl.cylinder_set(sys_a, [("e1", "e2")])
    found = cl.phi_upper(cl.walk_cylinders(sys_a, 1, None), q, 0, 2)
    (charged,) = asked  # the check of the cover charges nothing again
    assert charged == [("e1",), ("e1", "e2")]
    assert folds == [[("e1", "e2")]]
    folds.clear()
    assert cl.phi_upper(cl.walk_cylinders(sys_a, 2, None), q, 0, 2) == found
    assert folds == []


def test_monotone_in_search_space(sys_b):
    q = cl.cylinder_set(sys_b, [("e1", "e2")])
    costs = [cover_of(sys_b, q, w, n)[0]
             for w, n in ((0, 2), (1, 2), (1, 3), (2, 3))]
    for c1, c2 in zip(costs, costs[1:]):
        assert c2 <= c1 + 1e-15


def test_additivity_sanity(sys_a):
    q1 = cl.cylinder_set(sys_a, [("e1", "e1")])
    q2 = cl.cylinder_set(sys_a, [("e2", "e1")])
    q12 = cl.cylinder_set(sys_a, [("e1", "e1"), ("e2", "e1")])
    c1, _ = cover_of(sys_a, q1, 1, 2)
    c2, _ = cover_of(sys_a, q2, 1, 2)
    c12, _ = cover_of(sys_a, q12, 1, 2)
    assert c12 <= c1 + c2 + 1e-15


def test_budget_exhaustion_returns_trivial_incumbent(sys_a):
    q = cl.full_cylinder_set(sys_a, 3)
    cost, candidate = cover_of(sys_a, q, 2, 3, budget=1)
    assert not candidate.exhaustive
    assert cost == 1.0  # the seeded trivial cover
    cl.verify_cover(sys_a, q, candidate)


def test_returned_candidate_reverifies(sys_c):
    q = cl.cylinder_set(sys_c, [("c11", "c12"), ("c12", "c21")])
    cost, candidate = cover_of(sys_c, q, 1, 2)
    cl.verify_cover(sys_c, q, candidate)
    assert candidate.cost == cost


# --- verification failure modes ----------------------------------------------

def test_verify_rejects_overlap(sys_a):
    q = cl.cylinder_set(sys_a, [("e1",), ("e2",)])
    bad = cl.CoverCandidate(pieces=((0, ("e1",)), (0, ("e1", "e2")), (0, ("e2",))),
                            cost=0.0, exhaustive=True, window=(1, 2),
                            nodes_explored=0)
    with pytest.raises(cl.CertificateInvalid, match="disjointness"):
        cl.verify_cover(sys_a, q, bad)


def test_verify_rejects_gap(sys_a):
    q = cl.cylinder_set(sys_a, [("e1",), ("e2",)])
    bad = cl.CoverCandidate(pieces=((0, ("e1",)),), cost=0.5, exhaustive=True,
                            window=(1, 1), nodes_explored=0)
    with pytest.raises(cl.CertificateInvalid, match="coverage"):
        cl.verify_cover(sys_a, q, bad)


def test_verify_rejects_piece_that_misses_the_query(sys_a):
    # e2 on coordinate 1 is disjoint from the query e1 and from the other piece
    q = cl.cylinder_set(sys_a, [("e1",)])
    bad = cl.CoverCandidate(pieces=((0, ("e1",)), (0, ("e2",))), cost=1.0,
                            exhaustive=True, window=(1, 1), nodes_explored=0)
    with pytest.raises(cl.CertificateInvalid,
                       match=r"piece \(0, e2\) misses the query"):
        cl.verify_cover(sys_a, q, bad)


def test_verify_rejects_cost_mismatch(sys_a):
    q = cl.cylinder_set(sys_a, [("e1",), ("e2",)])
    bad = cl.CoverCandidate(pieces=((0, ("e1",)), (0, ("e2",))), cost=0.75,
                            exhaustive=True, window=(1, 1), nodes_explored=0)
    with pytest.raises(cl.CertificateInvalid, match="cost mismatch"):
        cl.verify_cover(sys_a, q, bad)


def test_certificate_round_trip_and_tamper(sys_a, tmp_path):
    q = cl.cylinder_set(sys_a, [("e1", "e2")])
    _, candidate = cover_of(sys_a, q, 1, 2)
    data = cl.certificate_dict(sys_a, q, candidate)
    cl.verify_certificate_data(json.loads(json.dumps(data)))

    for edit, reason in (
            (lambda d: d.update(cost=d["cost"] * 0.5), "cost mismatch"),
            (lambda d: d.update(pieces=d["pieces"] * 2), "disjointness"),
            (lambda d: d.update(pieces=[]), "cover has no pieces"),
            (lambda d: d["pieces"][0].update(shift=1), "piece shift 1 is positive"),
            # the search window must hold every piece
            (lambda d: d.update(window=[0, 0]),
             r"piece \(0, e1.e2\) lies outside the window \[0, 0\]"),
            (lambda d: d.update(window=[2, 2]), "outside the window"),
            (lambda d: (d.update(window=[1, 2]), d["pieces"][0].update(shift=-1)),
             r"piece \(-1, e1.e2\) lies outside the window \[1, 2\]"),
            (lambda d: d.pop("window"), "malformed certificate: 'window'")):
        tampered = json.loads(json.dumps(data))
        edit(tampered)
        with pytest.raises(cl.CertificateInvalid, match=reason):
            cl.verify_certificate_data(tampered)

    garbled = json.loads(json.dumps(data))
    del garbled["system"]
    with pytest.raises(cl.CertificateInvalid, match="malformed"):
        cl.verify_certificate_data(garbled)

    for key, value in (("window", 5), ("window", "zz"), ("window", [1, 2, 3]),
                       ("window", [0, "1"]), ("exhaustive", "false"),
                       ("exhaustive", 1), ("nodes_explored", "abc")):
        garbled = dict(json.loads(json.dumps(data)), **{key: value})
        with pytest.raises(cl.CertificateInvalid, match="malformed"):
            cl.verify_certificate_data(garbled)

    # a fractional or quoted shift and a quoted cost are refused, not
    # truncated or converted; an empty edge id is refused, not dropped
    piece = data["pieces"][0]
    for edit, reason in (
            (lambda d: d["pieces"][0].update(shift=piece["shift"] - 0.5),
             "expected an integer"),
            (lambda d: d["pieces"][0].update(shift=str(piece["shift"])),
             "expected an integer"),
            (lambda d: d.update(cost=str(data["cost"])),
             "expected finite numbers"),
            (lambda d: d["pieces"][0].update(word=piece["word"] + "."),
             "empty edge id"),
            (lambda d: d["query"].update(words=["e1..e2"]), "empty edge id")):
        garbled = json.loads(json.dumps(data))
        edit(garbled)
        with pytest.raises(cl.CertificateInvalid, match=f"malformed.*{reason}"):
            cl.verify_certificate_data(garbled)


# --- consistency ------------------------------------------------------------

def test_consistency_check_passes(sys_b, mu_b, constants_b):
    report = cl.evaluate_bounds(sys_b, constants_b)
    q = cl.cylinder_set(sys_b, [("e1",)])
    m_q = m_of(sys_b, q, mu_b)
    lower = cl.corollary_lower_bound(report, m_q)
    cost, _ = cover_of(sys_b, q, 1, 2)
    result = cl.consistency_check(lower, cost)
    assert result.passed
    assert result.margin == cost - lower


def test_consistency_check_red_flag():
    result = cl.consistency_check(0.9, 0.5)
    assert not result.passed
    assert result.margin == pytest.approx(-0.4)
    assert not cl.consistency_check(0.5 + 1e-11, 0.5).passed


def test_consistency_check_allows_rounding_when_both_sides_are_equal():
    """Both maps send every point to 1/2 and the probabilities are constant,
    so the corollary factor is 1 and M(Q) = phi0(Q) = cover cost for a word
    from the base point; under mu_N the two sides differ only by rounding,
    which is no red flag."""
    edges = [{"id": eid, "source": 1, "target": 1, "linear": [0.0],
              "offset": [0.5], "prob": {"family": "affine", "alpha": alpha,
                                        "beta": [0.0]}}
             for eid, alpha in (("a", 0.37968780389532797),
                                ("b", 0.620312196104672))]
    sys_ = cl.validate_system({"dimension": 1, "edges": edges, "vertices": [
        {"index": 1, "lower": [0.0], "upper": [1.0], "base_point": [0.0]}]})
    mu = cl.pushforward_measure(sys_)
    report = cl.evaluate_bounds(sys_, cl.derive_constants(sys_, mu))
    q = cl.cylinder_set(sys_, [("a", "a")])
    lower = cl.corollary_lower_bound(report, m_of(sys_, q, mu))
    cost, _ = cover_of(sys_, q, 1, 2)
    assert report.corollary_factor == 1.0
    assert abs(lower - cost) <= 1e-15  # equal up to rounding
    assert cl.consistency_check(lower, cost).passed


def test_shifted_partition_matches_unshifted_charge(sys_a):
    # covering the whole depth-1 space by pinning coordinate 0 instead of
    # coordinate 1 costs the same for this base measure
    q = cl.full_cylinder_set(sys_a, 1)
    pieces = tuple((-1, (e.id,)) for e in sys_a.edges)
    cost = math.fsum(cl.phi0_cyl(sys_a, w) for _, w in pieces)
    candidate = cl.CoverCandidate(pieces=pieces, cost=cost, exhaustive=False,
                                  window=(0, 1), nodes_explored=0)
    cl.verify_cover(sys_a, q, candidate)
    assert cost == 1.0
