from __future__ import annotations

import json
import math
import random

import pytest

import cmslab as cl

from oracles import brute_min_cover_cost, enumerate_paths


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
    cost, candidate = cl.phi_upper(sys_a, q, max_shift=2, max_depth=3)
    assert cost == 1.0
    assert candidate.exhaustive
    target, pieces = _oracle_pieces(sys_a, q, 2, 3)
    assert brute_min_cover_cost(target, pieces) == 1.0


def test_single_cylinder_trivial_cover_sys_a(sys_a):
    q = cl.cylinder_set(sys_a, [("e1", "e2")])
    cost, candidate = cl.phi_upper(sys_a, q, max_shift=2, max_depth=3)
    assert cost == 0.25
    assert candidate.exhaustive
    target, pieces = _oracle_pieces(sys_a, q, 2, 3)
    assert brute_min_cover_cost(target, pieces) == 0.25


def test_whole_space_cost_one_sys_c(sys_c):
    q = cl.full_cylinder_set(sys_c, 2)
    cost, candidate = cl.phi_upper(sys_c, q, max_shift=1, max_depth=2)
    assert cost == pytest.approx(1.0, abs=1e-12)
    assert candidate.exhaustive
    target, pieces = _oracle_pieces(sys_c, q, 1, 2)
    assert brute_min_cover_cost(target, pieces) == pytest.approx(cost, abs=1e-12)


def test_result_never_exceeds_trivial_cover(sys_b):
    for words in ([("e1",)], [("e1", "e2"), ("e2", "e2")],
                  [("e2", "e1", "e1")]):
        q = cl.cylinder_set(sys_b, words)
        trivial = math.fsum(cl.phi0_cyl(sys_b, w) for w in words)
        cost, _ = cl.phi_upper(sys_b, q, 1, max(len(w) for w in words))
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
                cost, candidate = cl.phi_upper(sys_, q, max_shift, max_depth)
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
    cost, candidate = cl.phi_upper(sys_a, q, 1, 3)
    assert cost == cl.phi0_cyl(sys_a, word)
    assert candidate.exhaustive
    cl.verify_cover(sys_a, q, candidate)


def test_window_past_word_cap_raises_depth_overflow(sys_a, monkeypatch):
    q = cl.full_cylinder_set(sys_a, 3)
    monkeypatch.setattr(cl.cylinders, "WORD_CAP", 4)
    with pytest.raises(cl.DepthOverflow):
        cl.phi_upper(sys_a, q, 0, 3)
    cl.phi_upper(sys_a, cl.cylinder_set(sys_a, [("e1", "e2", "e1")]), 1, 3)


def test_search_node_counts_are_pinned(sys_b, sys_c):
    """Node counts recorded from the search over the whole window's words:
    the query window keeps their order and the disjointness verdicts, so the
    branch and bound visits the same nodes."""
    for sys_, words, nodes in (
            (sys_b, cl.enumerate_words(sys_b, 3), 2113),
            (sys_b, [("e1", "e2"), ("e2", "e2")], 338),
            (sys_c, [("c11", "c12"), ("c12", "c21")], 93)):
        _, candidate = cl.phi_upper(sys_, cl.cylinder_set(sys_, words), 2, 3)
        assert (candidate.nodes_explored, candidate.exhaustive) == (nodes, True)


def test_phi_upper_charges_each_word_once(sys_c, monkeypatch):
    """Regression guard by counting: the pool, the trivial-cover seed and the
    final cost share one charge per word, whatever the number of shifts;
    verify_cover recomputes each piece's charge on its own."""
    calls = []
    original = cl.cover.phi0_cyl

    def counting(sys_, word):
        calls.append(word)
        return original(sys_, word)

    monkeypatch.setattr(cl.cover, "phi0_cyl", counting)
    for q, max_shift, max_depth in (
            (cl.full_cylinder_set(sys_c, 2), 2, 3),
            (cl.cylinder_set(sys_c, [("c12", "c21", "c11", "c12")]), 1, 2)):
        calls.clear()
        _, candidate = cl.phi_upper(sys_c, q, max_shift, max_depth)
        words = sum(cl.count_words(sys_c, n) for n in range(1, max_depth + 1))
        assert len(calls) <= words + len(q.words) + len(candidate.pieces)


def test_phi_upper_charges_only_words_of_pieces_that_meet_the_query(
        sys_a, monkeypatch):
    """With no shift, a one-word query at depth 2 meets only the pieces e1
    and e1.e2; no other word of depth <= 2 is charged."""
    calls = []
    original = cl.cover.phi0_cyl
    monkeypatch.setattr(cl.cover, "phi0_cyl",
                        lambda sys_, word: calls.append(word) or original(sys_, word))
    q = cl.cylinder_set(sys_a, [("e1", "e2")])
    _, candidate = cl.phi_upper(sys_a, q, 0, 2)
    assert sorted(set(calls)) == [("e1",), ("e1", "e2")]
    assert len(calls) == 2 + len(candidate.pieces)  # verify_cover recomputes


def test_monotone_in_search_space(sys_b):
    q = cl.cylinder_set(sys_b, [("e1", "e2")])
    costs = [cl.phi_upper(sys_b, q, w, n)[0]
             for w, n in ((0, 2), (1, 2), (1, 3), (2, 3))]
    for c1, c2 in zip(costs, costs[1:]):
        assert c2 <= c1 + 1e-15


def test_additivity_sanity(sys_a):
    q1 = cl.cylinder_set(sys_a, [("e1", "e1")])
    q2 = cl.cylinder_set(sys_a, [("e2", "e1")])
    q12 = cl.cylinder_set(sys_a, [("e1", "e1"), ("e2", "e1")])
    c1, _ = cl.phi_upper(sys_a, q1, 1, 2)
    c2, _ = cl.phi_upper(sys_a, q2, 1, 2)
    c12, _ = cl.phi_upper(sys_a, q12, 1, 2)
    assert c12 <= c1 + c2 + 1e-15


def test_budget_exhaustion_returns_trivial_incumbent(sys_a):
    q = cl.full_cylinder_set(sys_a, 3)
    cost, candidate = cl.phi_upper(sys_a, q, 2, 3, budget=1)
    assert not candidate.exhaustive
    assert cost == 1.0  # the seeded trivial cover
    cl.verify_cover(sys_a, q, candidate)


def test_returned_candidate_reverifies(sys_c):
    q = cl.cylinder_set(sys_c, [("c11", "c12"), ("c12", "c21")])
    cost, candidate = cl.phi_upper(sys_c, q, 1, 2)
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
    _, candidate = cl.phi_upper(sys_a, q, 1, 2)
    data = cl.certificate_dict(sys_a, q, candidate)
    cl.verify_certificate_data(json.loads(json.dumps(data)))

    tampered = json.loads(json.dumps(data))
    tampered["cost"] = tampered["cost"] * 0.5
    with pytest.raises(cl.CertificateInvalid, match="cost mismatch"):
        cl.verify_certificate_data(tampered)

    overlapping = json.loads(json.dumps(data))
    overlapping["pieces"] = overlapping["pieces"] * 2
    with pytest.raises(cl.CertificateInvalid, match="disjointness"):
        cl.verify_certificate_data(overlapping)

    garbled = json.loads(json.dumps(data))
    del garbled["system"]
    with pytest.raises(cl.CertificateInvalid, match="malformed"):
        cl.verify_certificate_data(garbled)

    for key, value in (("window", 5), ("nodes_explored", "abc")):
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
    m_q = cl.m_of_cylinder_set(sys_b, q, mu_b)
    lower = cl.corollary_lower_bound(report, q, m_q)
    cost, _ = cl.phi_upper(sys_b, q, 1, 2)
    result = cl.consistency_check(lower, cost)
    assert result.passed
    assert result.margin == cost - lower[0]


def test_consistency_check_red_flag():
    result = cl.consistency_check((0.9, 0.0), 0.5)
    assert not result.passed
    assert result.margin == pytest.approx(-0.4)


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
