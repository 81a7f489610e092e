import random

import numpy as np
import pytest

import targetflow.cover
import targetflow.flow
import targetflow.matching
from targetflow import (INF, Arc, BoundedFlowNetwork, DiGraph, PathCover,
                        allocate_drivers, build_associate_graph,
                        build_circulation_network, build_target_network,
                        decompose_cover, driver_count, extract_cover_edges,
                        generate_er, max_flow_dinic, min_flow_with_bounds,
                        solve, solve_via_circulation, validate_assignment,
                        verify_cover)

from conftest import random_graph, random_targets
from reference import (circulation_network_arcs, double_cover_drivers,
                       min_cover_drivers, target_network_arcs)


class TestBuildTargetNetwork:
    def test_canonical_counts(self, canonical):
        g, targets = canonical
        tnet = build_target_network(g, targets)
        assert tnet.net.node_count == 20
        assert len(tnet.net.arcs) == 4 + 4 + 5 + 13
        tags = [a.tag for a in tnet.net.arcs]
        assert tags.count("inject") == 4
        assert tags.count("collect") == 4
        assert tags.count("relay") == 5
        assert tags.count("edge") == 13
        assert all(a.cap == 1 and a.lower == 0 for a in tnet.net.arcs)

    def test_isolated_single_target(self):
        g = DiGraph(1, [])
        tnet = build_target_network(g, [0])
        pairs = {(a.tail, a.head) for a in tnet.net.arcs}
        # injector is node 3, collector node 2; out-copy of node 0 is 1
        assert pairs == {(3, 1), (0, 2)}

    def test_all_targets_leaves_no_relays(self):
        g = DiGraph(2, [(0, 1)])
        tnet = build_target_network(g, [0, 1])
        assert len(tnet.net.arcs) == 5
        assert all(a.tag != "relay" for a in tnet.net.arcs)

    def test_empty_targets_rejected(self):
        g = DiGraph(2, [(0, 1)])
        with pytest.raises(ValueError, match="empty target set"):
            build_target_network(g, [])

    def test_self_loop_becomes_out_to_in_arc(self):
        g = DiGraph(1, [(0, 0)])
        tnet = build_target_network(g, [0])
        edge_arc = tnet.net.arcs[tnet.edge_arcs[0]]
        assert (edge_arc.tail, edge_arc.head) == (1, 0)

    def test_arcs_match_per_arc_builder(self):
        rng = random.Random(21)
        for _ in range(300):
            g = random_graph(rng, 12, 30)
            targets = random_targets(rng, g.n)
            tnet = build_target_network(g, targets)
            want = target_network_arcs(g, targets)
            assert tnet.net.arcs == want
            assert [want[i] for i in tnet.edge_arcs] == [
                a for a in want if a.tag == "edge"]
            assert (tnet.net.node_count, tnet.net.source, tnet.net.sink) == (
                2 * g.n + 2, 2 * g.n + 1, 2 * g.n)

    def test_solve_builds_no_per_edge_tuples(self, monkeypatch):
        # the graph's tuple view and the network's Arc tuples stay unbuilt,
        # for a target subset and for the whole-network count
        nets = []
        build = targetflow.cover.build_target_network
        spy = lambda *args: nets.append(build(*args)) or nets[-1]  # noqa: E731
        monkeypatch.setattr(targetflow.cover, "build_target_network", spy)
        monkeypatch.setattr(targetflow.matching, "build_target_network", spy)
        for answer in (
                lambda g: solve(g, random.Random(6).sample(range(g.n), 1000)),
                driver_count):
            g = generate_er(10_000, 3, 5)
            nets.clear()
            answer(g)
            assert "edges" not in vars(g)
            assert len(nets) == 1 and "arcs" not in vars(nets[0].net)


class TestExtractCoverEdges:
    def test_zero_flow_gives_nothing(self, canonical):
        g, targets = canonical
        tnet = build_target_network(g, targets)
        zero = type(max_flow_dinic(tnet.net))(
            (0,) * len(tnet.net.arcs), 0)
        assert extract_cover_edges(tnet, zero) == []

    def test_canonical_flow_edges(self, canonical):
        g, targets = canonical
        tnet = build_target_network(g, targets)
        fa = max_flow_dinic(tnet.net)
        got = {(t + 1, h + 1) for t, h in extract_cover_edges(tnet, fa)}
        assert got == {(2, 3), (3, 6), (6, 2), (9, 7)}

    def test_invalid_flow_rejected(self, canonical):
        # two selected edges into node 2 can only come from a broken flow
        g, targets = canonical
        tnet = build_target_network(g, targets)
        flow = [0] * len(tnet.net.arcs)
        by_edge = dict(zip(g.edges, tnet.edge_arcs))
        flow[by_edge[(0, 1)]] = 1
        flow[by_edge[(5, 1)]] = 1
        fake = type(max_flow_dinic(tnet.net))(tuple(flow), 2)
        with pytest.raises(ValueError, match="conflicting"):
            extract_cover_edges(tnet, fake)

    def test_degree_bounds_on_random_instances(self):
        rng = random.Random(31)
        for _ in range(100):
            g = random_graph(rng, 10, 18)
            targets = random_targets(rng, g.n)
            tnet = build_target_network(g, targets)
            edges = extract_cover_edges(tnet, max_flow_dinic(tnet.net))
            tails = [t for t, _ in edges]
            heads = [h for _, h in edges]
            assert len(tails) == len(set(tails))
            assert len(heads) == len(set(heads))


class TestDecompose:
    def test_only_singletons(self):
        cover = decompose_cover([], [0, 1])
        assert cover.paths == ((0,), (1,))
        assert cover.cycles == ()

    def test_canonical_edge_set(self):
        # 1-based node ids as in the worked instance
        cover = decompose_cover([(2, 3), (3, 6), (6, 2), (9, 7)], [2, 3, 7, 9])
        assert cover.paths == ((9, 7),)
        assert cover.cycles == ((2, 3, 6),)

    def test_self_loop_cycle(self):
        cover = decompose_cover([(0, 0)], [0])
        assert cover.paths == ()
        assert cover.cycles == ((0,),)

    def test_degree_violation_rejected(self):
        with pytest.raises(ValueError, match="outgoing"):
            decompose_cover([(0, 1), (0, 2)], [0])
        with pytest.raises(ValueError, match="incoming"):
            decompose_cover([(0, 2), (1, 2)], [2])

    def test_consumes_every_edge(self):
        rng = random.Random(13)
        for _ in range(200):
            g = random_graph(rng, 9, 16)
            targets = random_targets(rng, g.n)
            tnet = build_target_network(g, targets)
            edges = extract_cover_edges(tnet, max_flow_dinic(tnet.net))
            cover = decompose_cover(edges, targets)
            used = []
            for p in cover.paths:
                used.extend(zip(p, p[1:]))
            for c in cover.cycles:
                used.extend(zip(c, c[1:] + c[:1]))
            assert sorted(used) == sorted(edges)


class TestSolve:
    def test_canonical(self, canonical):
        g, targets = canonical
        sol = solve(g, targets)
        assert sol.flow_value == 3
        assert sol.min_drivers == 1
        assert [[v + 1 for v in p] for p in sol.cover.paths] == [[9, 7]]
        assert [[v + 1 for v in c] for c in sol.cover.cycles] == [[2, 3, 6]]

    def test_chain(self):
        g = DiGraph(3, [(0, 1), (1, 2)])
        sol = solve(g, [0, 1, 2])
        assert sol.cover.paths == ((0, 1, 2),)
        assert sol.min_drivers == 1

    def test_pure_cycle_still_needs_one_driver(self):
        g = DiGraph(2, [(0, 1), (1, 0)])
        sol = solve(g, [0, 1])
        assert sol.cover.paths == ()
        assert sol.cover.cycles == ((0, 1),)
        assert sol.min_drivers == 1

    def test_matches_exhaustive_minimum(self):
        rng = random.Random(2024)
        for _ in range(300):
            g = random_graph(rng, 6, 9)
            targets = random_targets(rng, g.n)
            sol = solve(g, targets)
            assert sol.min_drivers == min_cover_drivers(g, targets)
            assert verify_cover(g, targets, sol.cover)

    def test_path_count_flow_identity(self):
        rng = random.Random(4)
        for _ in range(200):
            g = random_graph(rng, 10, 20)
            targets = random_targets(rng, g.n)
            sol = solve(g, targets)
            assert len(sol.cover.paths) == len(set(targets)) - sol.flow_value

    def test_monotone_in_target_set(self):
        rng = random.Random(6)
        for _ in range(150):
            g = random_graph(rng, 10, 20)
            big = random_targets(rng, g.n)
            small = sorted(rng.sample(big, rng.randint(1, len(big))))
            assert solve(g, small).min_drivers <= solve(g, big).min_drivers

    def test_non_integer_targets_rejected(self):
        g = DiGraph(3, [(0, 1), (1, 2)])
        for targets in ([1.5], [1.0], ["1"]):
            for route in (solve, solve_via_circulation):
                with pytest.raises(ValueError, match="must be integers"):
                    route(g, targets)
        assert solve(g, np.array([1, 2], dtype=np.int32)).min_drivers == 1

    def test_full_target_set_matches_matching_count(self):
        rng = random.Random(8)
        for _ in range(100):
            g = random_graph(rng, 12, 30)
            want = double_cover_drivers(g)
            assert solve(g, range(g.n)).min_drivers == want
            assert driver_count(g) == want


class TestCirculationRoute:
    def test_canonical(self, canonical):
        g, targets = canonical
        sol = solve_via_circulation(g, targets)
        assert sol.min_drivers == 1
        assert sol.flow_value == 3
        assert verify_cover(g, targets, sol.cover)

    def test_single_target_on_chain(self):
        g = DiGraph(3, [(0, 1), (1, 2)])
        sol = solve_via_circulation(g, [1])
        assert sol.min_drivers == 1

    def test_agrees_with_direct_route(self):
        rng = random.Random(15)
        for _ in range(150):
            g = random_graph(rng, 9, 16)
            targets = random_targets(rng, g.n)
            a = solve(g, targets)
            b = solve_via_circulation(g, targets)
            assert a.min_drivers == b.min_drivers
            assert a.flow_value == b.flow_value
            assert verify_cover(g, targets, b.cover)

    @pytest.mark.parametrize("fraction, seed", [(0.1, 1), (0.5, 2), (1.0, 3)])
    def test_agrees_with_direct_route_at_2000(self, fraction, seed):
        # far past the exhaustive oracles' n <= 12
        g = generate_er(2000, 3, seed)
        targets = random.Random(seed).sample(range(g.n), int(fraction * g.n))
        a = solve(g, targets)
        b = solve_via_circulation(g, targets)
        assert (a.min_drivers, a.flow_value) == (b.min_drivers, b.flow_value)
        net = build_circulation_network(g, targets).net
        validate_assignment(net, min_flow_with_bounds(net))
        assert verify_cover(g, targets, a.cover)
        assert verify_cover(g, targets, b.cover)

    def test_arcs_match_per_arc_builder(self):
        rng = random.Random(23)
        for _ in range(300):
            g = random_graph(rng, 12, 30)
            targets = random_targets(rng, g.n)
            cnet = build_circulation_network(g, targets)
            want = circulation_network_arcs(g, targets)
            assert cnet.net.arcs == want
            assert [want[i] for i in cnet.edge_arcs] == [
                a for a in want if a.tag == "edge"]
            assert want[cnet.return_arc].tag == "return"
            assert (cnet.net.node_count, cnet.net.source, cnet.net.sink) == (
                2 * g.n + 2, 2 * g.n, 2 * g.n + 1)


def _recording(monkeypatch, module, name, seen, pick):
    """Replace ``module.name`` by a wrapper that appends
    ``pick(args, result)`` to ``seen``."""
    real = getattr(module, name)

    def wrapper(*args):
        out = real(*args)
        seen.append(pick(args, out))
        return out
    monkeypatch.setattr(module, name, wrapper)


class TestColumnNetworks:
    def test_circulation_route_builds_no_arc_tuples(self, monkeypatch):
        g = generate_er(10_000, 3, 5)
        circ, work, plain = [], [], []
        _recording(monkeypatch, targetflow.cover, "build_circulation_network",
                   circ, lambda args, cnet: cnet.net)
        _recording(monkeypatch, targetflow.flow, "feasible_circulation",
                   work, lambda args, _: args[0])
        _recording(monkeypatch, targetflow.flow, "build_associate_graph",
                   plain, lambda args, out: out[0])
        solve_via_circulation(g, random.Random(6).sample(range(g.n), 1000))
        for net in circ + work + plain:
            assert "arcs" not in vars(net)
            assert net.lower.dtype == net.cap.dtype == np.int64
        assert circ and work and plain

    def test_constructor_keeps_arcs_and_tag_runs(self):
        arcs = (Arc(0, 1, 0, 1, "a"), Arc(0, 2, 1, 2, "a"), Arc(1, 2),
                Arc(2, 3, 0, INF), Arc(1, 3, 0, 1, "b"), Arc(2, 3, 0, 1, "a"),
                Arc(1, 2, 0, 3))
        net = BoundedFlowNetwork(4, arcs, 0, 3)
        assert "arcs" not in vars(net)
        assert net.arcs == arcs
        assert BoundedFlowNetwork(4, iter(arcs), 0, 3).arcs == arcs
        assert BoundedFlowNetwork(4, (), 0, 3).arcs == ()

    def test_unbounded_arcs_round_trip(self):
        arcs = (Arc(0, 1, 0, 1, "a"), Arc(0, 2, 1, 2, "a"), Arc(1, 2, 0, INF),
                Arc(2, 3, 1, INF, "b"), Arc(1, 3, 0, 2))
        net = BoundedFlowNetwork(4, arcs, 0, 3)
        assert net.arcs == arcs
        assert BoundedFlowNetwork(4, net.arcs, 0, 3).arcs == arcs
        cols = BoundedFlowNetwork.from_columns(
            4, 0, 3, net.tail, net.head, net.lower, net.cap, net._tags,
            net.unbounded)
        assert cols.arcs == arcs
        assert cols.cap.tolist() == net.cap.tolist() == [1, 2, 8, 8, 2]
        plain, arc_map = build_associate_graph(net)
        assert [plain.arcs[i] for i in arc_map] == [
            a._replace(lower=0, cap=a.cap - a.lower) for a in arcs]

    def test_tags_pass_into_derived_networks(self, monkeypatch, canonical):
        g, targets = canonical
        cnet = build_circulation_network(g, targets)
        plain, arc_map = build_associate_graph(cnet.net)
        m = len(cnet.net.arcs)
        assert [plain.arcs[i].tag for i in arc_map] == [
            a.tag for a in cnet.net.arcs]
        assert all(a.tag is None for a in plain.arcs[m:])
        # a network without a return arc gets an untagged one to work on
        arcs = (Arc(0, 1, 1, 1, "a"), Arc(1, 2, 0, 1), Arc(1, 2, 1, 1, "b"))
        net = BoundedFlowNetwork(3, arcs, 0, 2)
        work = []
        _recording(monkeypatch, targetflow.flow, "feasible_circulation",
                   work, lambda args, _: args[0])
        min_flow_with_bounds(net)
        assert work[0].arcs == arcs + (Arc(2, 0, 0, INF),)


class TestAllocate:
    def test_canonical_attachments(self, canonical):
        g, targets = canonical
        alloc = allocate_drivers(solve(g, targets).cover)
        assert alloc.driver_count == 1
        assert {(d, v + 1) for d, v in alloc.attachments} == {(0, 9), (0, 2)}

    def test_cycle_only_cover(self):
        alloc = allocate_drivers(PathCover((), ((1, 2),)))
        assert alloc.driver_count == 1
        assert alloc.attachments == ((0, 1),)

    def test_singleton_paths(self):
        alloc = allocate_drivers(PathCover(((4,), (5,)), ()))
        assert alloc.driver_count == 2
        assert alloc.attachments == ((0, 4), (1, 5))

    def test_every_path_head_gets_own_driver(self):
        rng = random.Random(44)
        for _ in range(100):
            g = random_graph(rng, 8, 12)
            targets = random_targets(rng, g.n)
            cover = solve(g, targets).cover
            alloc = allocate_drivers(cover)
            assert alloc.driver_count == max(len(cover.paths), 1)
            path_drivers = [d for d, _ in alloc.attachments[:len(cover.paths)]]
            assert path_drivers == list(range(len(cover.paths)))
            assert len(alloc.attachments) == len(cover.paths) + len(cover.cycles)


class TestVerifyCover:
    def test_canonical_solution_passes(self, canonical):
        g, targets = canonical
        assert verify_cover(g, targets, solve(g, targets).cover)

    def test_node_reuse_fails(self, canonical):
        g, targets = canonical
        cover = PathCover(((8, 6), (2, 3)), ((1, 2, 5),))  # node 2 reused
        assert not verify_cover(g, targets, cover)

    def test_non_edge_step_fails(self, canonical):
        g, targets = canonical
        cover = PathCover(((8, 5),), ())  # 9 -> 6 exists, but targets uncovered
        assert not verify_cover(g, targets, cover)
        cover = PathCover(((8, 6), (0, 2)), ((1, 4),))  # (0,2),(1,4) non-edges
        assert not verify_cover(g, targets, cover)

    def test_self_loop_cycle_checked_against_edges(self):
        g = DiGraph(2, [(0, 0), (0, 1)])
        assert verify_cover(g, [0], PathCover((), ((0,),)))
        assert not verify_cover(g, [1], PathCover((), ((1,),)))

    def test_non_integer_targets_fail(self):
        g = DiGraph(3, [(0, 1), (1, 2)])
        cover = PathCover(((0, 1, 2),), ())
        assert verify_cover(g, [1], cover)
        assert not verify_cover(g, [1.5], cover)
