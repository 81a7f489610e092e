import random
import time

import numpy as np
import pytest

import targetflow.cover
import targetflow.flow
import targetflow.matching
from targetflow import (INF, Arc, BoundedFlowNetwork, DiGraph, PathCover,
                        allocate_drivers, build_associate_graph,
                        build_circulation_network, build_target_network,
                        decompose_cover, driver_count, extract_cover_edges,
                        feasible_circulation, generate_er, max_flow_dinic,
                        max_matching, min_flow_with_bounds, solve,
                        solve_via_circulation, sweep, validate_assignment,
                        verify_cover, verify_optimality)

from conftest import random_graph, random_targets
from reference import (circulation_network_arcs, double_cover_drivers,
                       min_cover_drivers, peel_cover, target_network_arcs)


def _assert_target_layout(g, tnet):
    """The arc index ranges that ``TargetFlowNetwork`` documents."""
    n, m, net = g.n, g.tail.size, tnet.net
    members = list(tnet.targets)
    k = len(members)
    others = [v for v in range(n) if v not in members]
    ranges = {  # (start, stop): (tails, heads)
        (0, k): ([2 * n + 1] * k, [n + v for v in members]),  # inject
        (k, 2 * k): (members, [2 * n] * k),  # collect
        (2 * k, n + k): (others, [n + v for v in others]),  # relay
        (n + k, n + k + m): ((g.tail + n).tolist(), g.head.tolist()),  # edge
    }
    for (start, stop), (tails, heads) in ranges.items():
        assert net.tail[start:stop].tolist() == tails
        assert net.head[start:stop].tolist() == heads
    assert net.tail.size == n + k + m
    assert tnet.edge_arcs == range(n + k, n + k + m)
    assert not net.lower.any() and (net.cap == 1).all()


def _assert_circulation_layout(g, cnet):
    """The arc index ranges that ``CirculationNetwork`` documents."""
    n, m, net = g.n, g.tail.size, cnet.net
    nodes = list(range(n))
    ranges = {  # (start, stop): (tails, heads, lowers)
        (0, n): ([2 * n] * n, nodes, [0] * n),  # source
        (n, 2 * n): ([n + v for v in nodes], [2 * n + 1] * n, [0] * n),  # sink
        (2 * n, 3 * n): (nodes, [n + v for v in nodes],
                         [int(v in cnet.targets) for v in nodes]),  # split
        (3 * n, 3 * n + m): ((g.tail + n).tolist(), g.head.tolist(),
                             [0] * m),  # edge
        (3 * n + m, 3 * n + m + 1): ([2 * n + 1], [2 * n], [0]),  # return
    }
    for (start, stop), cols in ranges.items():
        assert tuple(c[start:stop].tolist()
                     for c in (net.tail, net.head, net.lower)) == cols
    assert net.tail.size == 3 * n + m + 1
    assert cnet.edge_arcs == range(3 * n, 3 * n + m)
    assert net.unbounded.tolist() == [cnet.return_arc] == [3 * n + m]
    assert (net.cap[:-1] == 1).all()


class TestBuildTargetNetwork:
    def test_canonical_counts(self, canonical):
        g, targets = canonical
        tnet = build_target_network(g, targets)
        assert tnet.net.node_count == 20
        assert len(tnet.net.arcs) == 4 + 4 + 5 + 13
        _assert_target_layout(g, tnet)

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
        _assert_target_layout(g, tnet)  # its relay range [4, 4) is empty

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
            _assert_target_layout(g, tnet)
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


class TestTargetNetworkUnion:
    # five random target sets and, third, the isolated node, whose set
    # takes no flow.  Each component is the one-set network with its nodes
    # moved, and gets arc for arc the flow of a separate max flow.
    @pytest.mark.parametrize("fraction", [0.1, 0.5, 1.0])
    def test_components_get_their_separate_flows(self, fraction):
        er = generate_er(300, 3, 7)
        g = DiGraph(er.n + 1, er.edges)
        rng = random.Random(fraction)
        size = max(1, round(fraction * g.n))
        sets = [sorted(rng.sample(range(g.n), size)) for _ in range(5)]
        sets.insert(2, [er.n])
        union = build_target_network(g, *sets)
        n, count = g.n, len(sets)
        net = union.net
        assert (net.node_count, net.source, net.sink) == (
            2 * n * count + 2, 2 * n * count + 1, 2 * n * count)
        fa = max_flow_dinic(net)
        verify_optimality(net, fa)
        start, flows = 0, []
        injected = np.flatnonzero(net.tail == net.source).tolist()
        for c, members in enumerate(sets):
            alone = build_target_network(g, members)
            own = max_flow_dinic(alone.net)
            span = alone.net.tail.size
            moved = np.append(np.arange(2 * n) + 2 * n * c,
                              [2 * n * count, 2 * n * count + 1])
            arcs = slice(start, start + span)
            assert net.tail[arcs].tolist() == moved[alone.net.tail].tolist()
            assert net.head[arcs].tolist() == moved[alone.net.head].tolist()
            # the injector's arcs, set by set
            inject = range(start, start + len(members))
            assert injected[:len(members)] == list(inject)
            del injected[:len(members)]
            assert fa.flow[arcs].tolist() == own.flow.tolist()
            flows.append(int(fa.flow[inject.start:inject.stop].sum()))
            assert flows[-1] == own.value
            start += span
        assert start == net.tail.size and not injected
        assert flows[2] == 0 and min(flows[:2] + flows[3:]) > 0
        assert fa.value == sum(flows)
        assert union.targets == tuple(sets[0])
        assert union.edge_arcs == build_target_network(g, sets[0]).edge_arcs

    def test_every_set_is_checked(self):
        g = DiGraph(2, [(0, 1)])
        with pytest.raises(ValueError, match="empty target set"):
            build_target_network(g, [0], [])
        with pytest.raises(ValueError, match="out of range"):
            build_target_network(g, [0], [1], [2])

    def test_out_of_range_names_one_target(self):
        # the message names the first offending target, not the whole set
        g = DiGraph(100_000, [])
        for targets, bad in ((range(100_001), 100_000), ([-3, -1, 5], -3)):
            with pytest.raises(ValueError) as exc:
                solve(g, targets)
            assert str(exc.value) == f"target {bad} out of range for n=100000"


class TestExtractCoverEdges:
    def test_zero_flow_gives_nothing(self, canonical):
        g, targets = canonical
        tnet = build_target_network(g, targets)
        zero = type(max_flow_dinic(tnet.net))(
            (0,) * len(tnet.net.arcs), 0)
        edges = extract_cover_edges(tnet, zero)
        assert edges.shape == (0, 2) and edges.dtype == np.int64

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

    def test_sparse_and_negative_ids(self):
        cover = decompose_cover([(0, 10 ** 12), (-5, 0)], [0, 7])
        assert cover.paths == ((7,), (-5, 0, 10 ** 12))
        assert decompose_cover(np.array([[3, -3], [-3, 3]]), [3]).cycles == (
            (-3, 3),)
        # array targets come back as Python ints, not numpy scalars
        cover = decompose_cover(np.array([[0, 1]]), np.array([0, 1, 2]))
        assert cover.paths == ((2,), (0, 1)) and type(cover.paths[0][0]) is int

    @pytest.mark.parametrize("targets", [
        [9, -7, 1, 9, -7, 3, -4], np.array([3, 9, -7, 9, -4, 1]), (9, 3, -7)])
    def test_lone_targets_unsorted_repeated_negative(self, targets):
        cover = decompose_cover([(0, 1), (5, -4)], targets)
        assert cover.paths == ((-7,), (3,), (9,), (0, 1), (5, -4))
        assert all(type(v) is int for p in cover.paths for v in p)

    @pytest.mark.parametrize("edges", [
        [(0, 1.5)], [(0.0, 1.0)], np.array([[0.0, 1.0]]), [(0, 2 ** 63)],
        [(2 ** 63, 2 ** 63 + 1)], [(0, 2 ** 64)], [(-1, 2 ** 63)],
        np.array([[0, 2 ** 63]], dtype=np.uint64)])
    def test_id_not_int64_rejected(self, edges):
        # a cast to int64 would truncate a float and wrap a large id
        with pytest.raises(ValueError, match="must be integers within int64"):
            decompose_cover(edges, [0])

    def test_matches_reference_peel(self):
        rng = random.Random(31)
        shapes = {"path": 0, "cycle": 0, "self-loop": 0, "singleton": 0}
        for _ in range(400):
            n = rng.randint(1, 14)
            tails = rng.sample(range(n), rng.randint(0, n))
            edges = list(zip(tails, rng.sample(range(n), len(tails))))
            rng.shuffle(edges)
            targets = rng.sample(range(n), rng.randint(1, n))
            cover = decompose_cover(edges, targets)
            assert cover == peel_cover(edges, targets)
            rows = np.array(edges, dtype=np.int64).reshape(-1, 2)
            assert decompose_cover(rows, targets) == cover
            shapes["path"] += sum(len(p) > 1 for p in cover.paths)
            shapes["singleton"] += sum(len(p) == 1 for p in cover.paths)
            shapes["cycle"] += sum(len(c) > 1 for c in cover.cycles)
            shapes["self-loop"] += sum(len(c) == 1 for c in cover.cycles)
        assert min(shapes.values()) > 50, shapes

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
            assert sorted(used) == sorted(map(tuple, edges.tolist()))


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
        for targets in ([1.5], [1.0], ["1"], np.array([[1, 2]]),
                        np.array([True, False, True])):
            for route in (solve, solve_via_circulation):
                with pytest.raises(ValueError, match="must be integers"):
                    route(g, targets)
            with pytest.raises(ValueError, match="must be integers"):
                decompose_cover([], targets)
        assert solve(g, np.array([1, 2], dtype=np.int32)).min_drivers == 1

    def test_bool_among_ints_is_its_int(self):
        # a bool array is a mask and is rejected above (read as ids, it
        # would name the targets 0 and 1); a bool in a list is 0 or 1
        g = DiGraph(4, [(0, 1), (2, 3)])
        assert solve(g, [True, 3]) == solve(g, [1, 3])

    def test_self_looped_40k_under_5s(self):
        # a self-loop at every node: tens of thousands of cover cycles
        g = generate_er(40_000, 3, 1)
        loops = np.arange(g.n).repeat(2).reshape(-1, 2)
        g = DiGraph(g.n, np.concatenate((np.stack((g.tail, g.head), 1),
                                         loops)))
        start = time.perf_counter()
        sol = solve(g, range(g.n))
        elapsed = time.perf_counter() - start
        assert len(sol.cover.cycles) > 10_000
        assert verify_cover(g, range(g.n), sol.cover)
        assert elapsed < 5

    def test_answers_only_a_flow_its_cut_certifies(self, canonical,
                                                   monkeypatch):
        # an engine that hands over a zero flow with the true value and
        # minimum cut: the flow is valid, but the cut's capacity exceeds
        # the flow across it, so no entry point may answer with it
        monkeypatch.setattr(
            targetflow.flow._ResidualDinic, "pushed",
            lambda engine: np.zeros(engine.cap.size // 2, dtype=np.int64))
        g, targets = canonical
        answers = [
            lambda: max_flow_dinic(build_target_network(g, targets).net),
            lambda: solve(g, targets),
            lambda: max_matching(g),
            lambda: sweep(g, [0.5], 2, 1),
            lambda: feasible_circulation(
                build_circulation_network(g, targets).net),
            lambda: min_flow_with_bounds(
                build_circulation_network(g, targets).net),
            lambda: solve_via_circulation(g, targets),
        ]
        for answer in answers:
            with pytest.raises(ValueError, match="cut capacity"):
                answer()

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
            _assert_circulation_layout(g, cnet)
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
        _recording(monkeypatch, targetflow.flow, "build_associate_graph",
                   work, lambda args, _: args[0])
        _recording(monkeypatch, targetflow.flow, "build_associate_graph",
                   plain, lambda args, out: out)
        solve_via_circulation(g, random.Random(6).sample(range(g.n), 1000))
        for net in circ + work + plain:
            assert "arcs" not in vars(net)
            assert net.lower.dtype == net.cap.dtype == np.int64
        assert circ and work and plain

    def test_constructor_keeps_arcs(self):
        arcs = (Arc(0, 1, 0, 1), Arc(0, 2, 1, 2), Arc(1, 2), Arc(2, 3, 0, INF),
                Arc(1, 3, 0, 1), Arc(2, 3, 0, 1), Arc(1, 2, 0, 3))
        net = BoundedFlowNetwork(4, arcs, 0, 3)
        assert "arcs" not in vars(net)
        assert net.arcs == arcs
        assert BoundedFlowNetwork(4, iter(arcs), 0, 3).arcs == arcs
        assert BoundedFlowNetwork(4, (), 0, 3).arcs == ()

    def test_unbounded_arcs_round_trip(self):
        arcs = (Arc(0, 1, 0, 1), Arc(0, 2, 1, 2), Arc(1, 2, 0, INF),
                Arc(2, 3, 1, INF), Arc(1, 3, 0, 2))
        net = BoundedFlowNetwork(4, arcs, 0, 3)
        assert net.arcs == arcs
        assert BoundedFlowNetwork(4, net.arcs, 0, 3).arcs == arcs
        cols = BoundedFlowNetwork.from_columns(
            4, 0, 3, net.tail, net.head, net.lower, net.cap, net.unbounded)
        assert cols.arcs == arcs
        assert cols.cap.tolist() == net.cap.tolist() == [1, 2, 8, 8, 2]
        plain = build_associate_graph(net)
        assert plain.arcs[:len(arcs)] == tuple(
            a._replace(lower=0, cap=a.cap - a.lower) for a in arcs)

    def test_min_flow_appends_return_arc(self, monkeypatch):
        # a network without a return arc gets one to work on
        arcs = (Arc(0, 1, 1, 1), Arc(1, 2, 0, 1), Arc(1, 2, 1, 1))
        net = BoundedFlowNetwork(3, arcs, 0, 2)
        work = []
        _recording(monkeypatch, targetflow.flow, "build_associate_graph",
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

    @pytest.mark.parametrize("node", [1.0, "1", 2, -1])
    def test_cover_node_not_an_id_in_range_fails(self, node):
        # 1.0 hashes and compares equal to node 1
        g = DiGraph(2, [(0, 1)])
        assert verify_cover(g, [1], PathCover(((0, 1),), ()))
        assert not verify_cover(g, [1], PathCover(((0, node),), ()))
