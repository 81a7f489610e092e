import random

import numpy as np
import pytest

from targetflow import (DiGraph, FlowAssignment, Matching,
                        build_target_network, driver_count, generate_er,
                        generate_sf, max_matching, verify_optimality)

from conftest import random_graph
from reference import brute_max_matching_size, residual_reach


def test_chain_matches_both_edges():
    g = DiGraph(3, [(0, 1), (1, 2)])
    m = max_matching(g)
    assert m.size == 2
    assert set(m.pairs) == {(0, 1), (1, 2)}


def test_empty_graph():
    assert max_matching(DiGraph(3, [])).size == 0
    g = DiGraph(0, [])
    assert max_matching(g) == Matching((), 0)
    assert driver_count(g) == 1


def test_matching_validity_and_optimality():
    rng = random.Random(17)
    for _ in range(100):
        g = random_graph(rng, 10, 12)
        m = max_matching(g)
        tails = [t for t, _ in m.pairs]
        heads = [h for _, h in m.pairs]
        assert len(tails) == len(set(tails))
        assert len(heads) == len(set(heads))
        assert all(e in set(g.edges) for e in m.pairs)
        assert m.size == brute_max_matching_size(g)


def test_self_loop_matchable():
    g = DiGraph(1, [(0, 0)])
    assert max_matching(g).size == 1
    assert driver_count(g) == 1


def test_driver_count_examples():
    assert driver_count(DiGraph(3, [(0, 1), (1, 2)])) == 1
    assert driver_count(DiGraph(3, [])) == 3


def test_driver_count_bounds_and_monotonicity():
    rng = random.Random(23)
    for _ in range(100):
        g = random_graph(rng, 9, 10)
        nd = driver_count(g)
        assert 1 <= nd <= g.n
        # adding one edge can only help
        candidates = [(a, b) for a in range(g.n) for b in range(g.n)
                      if (a, b) not in set(g.edges)]
        if candidates:
            extra = rng.choice(candidates)
            g2 = DiGraph(g.n, list(g.edges) + [extra])
            assert driver_count(g2) <= nd


def test_deterministic_pairs():
    rng = random.Random(29)
    for _ in range(30):
        g = random_graph(rng, 12, 25)
        assert max_matching(g) == max_matching(g)


@pytest.mark.parametrize("kind", ["er", "sf"])
def test_large_matching_is_a_certified_maximum_flow(kind):
    # beyond the brute-force oracle: the pairs are edges of g in edge order
    # with no tail or head repeated, and the all-target flow they define
    # passes the min-cut certificate, its cut found apart from the library
    if kind == "er":
        g = generate_er(10_000, 3, 1)
    else:
        g = generate_sf(10_000, 3, 3, 1)
    m = max_matching(g)
    assert m.size == len(m.pairs) > 0
    edge_of = {e: i for i, e in enumerate(g.edges)}
    order = [edge_of[e] for e in m.pairs]  # KeyError: not an edge of g
    assert order == sorted(order)
    tails, heads = np.array(m.pairs).T
    assert len(set(tails.tolist())) == len(set(heads.tolist())) == m.size

    # with every node a target, arc u is u's inject arc and arc n + v is
    # v's collect arc
    tnet = build_target_network(g, range(g.n))
    flow = np.zeros(tnet.net.tail.size, dtype=np.int64)
    flow[tails] = 1
    flow[g.n + heads] = 1
    flow[np.array(tnet.edge_arcs)[order]] = 1
    net = tnet.net
    cut = np.zeros(net.node_count, dtype=bool)
    cut[list(residual_reach(net.node_count, net.arcs, flow.tolist(),
                            net.source))] = True
    verify_optimality(net, FlowAssignment(flow, m.size, cut))
