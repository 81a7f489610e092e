import hashlib
import math
import random
import time
import warnings
from collections import deque

import numpy as np
import pytest

from targetflow import (INF, Arc, BoundedFlowNetwork, InfeasibleFlowError,
                        build_associate_graph, build_circulation_network,
                        build_target_network, feasible_circulation,
                        generate_er, generate_sf, max_flow_dinic,
                        min_flow_with_bounds, validate_assignment,
                        verify_optimality)
from targetflow.flow import FlowAssignment, _ResidualDinic

from conftest import random_graph, random_targets
from reference import (brute_circulation_exists, brute_min_flow_value,
                       edmonds_karp_value, sample_feasible_flow_value,
                       shortest_path_slots)


def random_network(rng, max_n=12, max_cap=3, with_lowers=False):
    """Random bounded network respecting the source/sink arc invariant."""
    n = rng.randint(2, max_n)
    s, t = 0, n - 1
    arcs = []
    for _ in range(rng.randint(1, 3 * n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b or b == s or a == t:
            continue
        cap = rng.randint(1, max_cap)
        lower = rng.randint(0, cap) if with_lowers else 0
        arcs.append(Arc(a, b, lower, cap))
    if not arcs:
        arcs = [Arc(s, t, 0, 1)]
    return BoundedFlowNetwork(n, tuple(arcs), s, t)


class TestNetworkValidation:
    def test_lower_above_cap_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            BoundedFlowNetwork(2, (Arc(0, 1, 2, 1),), 0, 1)

    def test_source_in_arc_rejected(self):
        with pytest.raises(ValueError, match="source"):
            BoundedFlowNetwork(3, (Arc(1, 0, 0, 1),), 0, 2)

    def test_return_arc_allowed(self):
        BoundedFlowNetwork(2, (Arc(0, 1, 0, 1), Arc(1, 0, 0, INF)), 0, 1)

    def test_same_source_sink_rejected(self):
        with pytest.raises(ValueError):
            BoundedFlowNetwork(2, (), 0, 0)

    def test_source_sink_checked_at_construction(self):
        arcs = (Arc(0, 1),)
        with pytest.raises(ValueError, match="must differ"):
            BoundedFlowNetwork(2, arcs, 0, 0)
        with pytest.raises(ValueError, match="out of range"):
            BoundedFlowNetwork(2, arcs, 0, 2)


def _one_arc(build, lower, cap):
    """A one-arc network built from an ``Arc`` or from float64 columns."""
    if build == "arcs":
        return BoundedFlowNetwork(2, (Arc(0, 1, lower, cap),), 0, 1)
    return BoundedFlowNetwork.from_columns(
        2, 0, 1, [0], [1], np.array([lower], dtype=float),
        np.array([cap], dtype=float))


@pytest.mark.parametrize("build", ["arcs", "columns"])
class TestBoundContract:
    @pytest.mark.parametrize("lower, cap, message", [
        (0, 1.5, "finite capacity must be an integer"),
        (0.5, 1, "lower bound must be a non-negative integer"),
        (0, math.nan, "finite capacity must be an integer"),
        (0, -INF, "finite capacity must be an integer"),
        (INF, 1, "lower bound must be a non-negative integer"),
        (0, 2 ** 63, "int64"),
    ])
    def test_bad_bound_rejected(self, build, lower, cap, message):
        with pytest.raises(ValueError, match=message):
            _one_arc(build, lower, cap)

    def test_integral_float_stored_as_int64(self, build):
        net = _one_arc(build, 0.0, 2.0)
        assert net.lower.dtype == net.cap.dtype == np.int64
        assert (net.lower.tolist(), net.cap.tolist()) == ([0], [2])


@pytest.mark.parametrize("f", [math.nan, 1.5, INF, -INF])
def test_non_integer_flow_rejected_without_warning(f):
    net = BoundedFlowNetwork(2, (Arc(0, 1, 0, 1),), 0, 1)
    for check in (validate_assignment, verify_optimality):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-integer flow|violates"):
                check(net, FlowAssignment((f,), 0))


def _unbounded_path_networks():
    """Networks whose source reaches the sink along unbounded arcs: the
    path alone, and beside a finite path."""
    return [
        BoundedFlowNetwork(3, (Arc(0, 1, 0, INF), Arc(1, 2, 0, INF)), 0, 2),
        BoundedFlowNetwork(4, (Arc(0, 1, 0, 5), Arc(0, 2, 0, INF),
                               Arc(2, 3, 0, INF), Arc(1, 3, 0, 2)), 0, 3)]


class TestUnboundedArcs:
    def test_sentinel_is_one_plus_finite_bounds(self):
        net = BoundedFlowNetwork(
            4, (Arc(0, 1, 1, 2), Arc(1, 2, 0, INF), Arc(2, 3, 2, INF),
                Arc(1, 3, 0, 3)), 0, 3)
        assert net.unbounded.tolist() == [1, 2]
        assert net.cap.tolist() == [2, 9, 9, 3]
        assert not net.unbounded.flags.writeable

    def test_unbounded_max_flow_rejected(self):
        for net in _unbounded_path_networks():
            with pytest.raises(ValueError, match="unbounded arcs"):
                max_flow_dinic(net)

    def test_cut_left_by_unbounded_arc_rejected(self):
        # the flows that reach the sentinel: 1 on the lone path, and 8 on
        # the unbounded path beside 2 on the finite one
        for net, fa in zip(_unbounded_path_networks(),
                           (FlowAssignment((1, 1), 1),
                            FlowAssignment((2, 8, 8, 2), 10))):
            validate_assignment(net, fa)
            with pytest.raises(ValueError, match="augmenting path"):
                verify_optimality(net, fa)

    def test_flow_above_sentinel_is_no_violation(self):
        # around the unbounded cycle 1 -> 2 -> 1, whose sentinel is 3, up
        # to a flow beyond int64
        net = BoundedFlowNetwork(
            4, (Arc(0, 1, 0, 1), Arc(1, 2, 0, INF), Arc(2, 1, 0, INF),
                Arc(1, 3, 0, 1)), 0, 3)
        assert net.cap.tolist() == [1, 3, 3, 1]
        for f in (100, 2 ** 70):
            fa = FlowAssignment((1, f, f, 1), 1)
            validate_assignment(net, fa)
            verify_optimality(net, fa)


class TestMaxFlow:
    def test_single_arc(self):
        net = BoundedFlowNetwork(2, (Arc(0, 1, 0, 1),), 0, 1)
        fa = max_flow_dinic(net)
        assert fa.value == 1 and fa.flow == (1,)

    def test_diamond(self):
        net = BoundedFlowNetwork(
            4, (Arc(0, 1), Arc(0, 2), Arc(1, 3), Arc(2, 3)), 0, 3)
        assert max_flow_dinic(net).value == 2

    def test_lower_bounds_rejected(self):
        net = BoundedFlowNetwork(2, (Arc(0, 1, 1, 1),), 0, 1)
        with pytest.raises(ValueError, match="lower"):
            max_flow_dinic(net)

    def test_against_augmenting_path_oracle(self):
        rng = random.Random(123)
        for _ in range(200):
            net = random_network(rng)
            fa = max_flow_dinic(net)
            validate_assignment(net, fa)
            ref = edmonds_karp_value(
                net.node_count,
                [(a.tail, a.head, a.cap) for a in net.arcs],
                net.source, net.sink)
            assert fa.value == ref

    def test_dominates_sampled_feasible_flows(self):
        rng = random.Random(321)
        for _ in range(1000):
            net = random_network(rng, max_n=8)
            best = max_flow_dinic(net).value
            sampled = sample_feasible_flow_value(
                net.node_count,
                [(a.tail, a.head, a.cap) for a in net.arcs],
                net.source, net.sink, rng)
            assert sampled <= best

    def test_golden_unit_assignments(self):
        # assignments, arc for arc, recorded from the earlier two-engine
        # implementation; a tie-break change anywhere shows up here
        assert _digest(*_golden_case("unit")) == GOLDEN["unit"]

    def test_parallel_arcs(self):
        net = BoundedFlowNetwork(2, (Arc(0, 1), Arc(0, 1)), 0, 1)
        assert max_flow_dinic(net).value == 2

    def test_golden_unit_assignments_midsize(self):
        # one 2700-arc network, far larger than the random ones above
        assert _digest(*_golden_case("unit_midsize")) == GOLDEN["unit_midsize"]


class TestAssociateGraph:
    def test_all_zero_lowers_give_zero_added_caps(self):
        net = BoundedFlowNetwork(3, (Arc(0, 1), Arc(1, 2)), 0, 2)
        plain, arc_map = build_associate_graph(net)
        added = plain.arcs[len(net.arcs):]
        assert all(a.cap == 0 for a in added)
        assert list(arc_map) == [0, 1]

    def test_single_bounded_arc(self):
        net = BoundedFlowNetwork(2, (Arc(0, 1, 1, 1),), 0, 1)
        plain, _ = build_associate_graph(net)
        image = plain.arcs[0]
        assert image.cap == 0 and image.lower == 0
        by_pair = {(a.tail, a.head): a.cap for a in plain.arcs[1:]}
        # new source is node 2, new sink node 3
        assert by_pair[(2, 1)] == 1
        assert by_pair[(0, 3)] == 1
        assert by_pair[(2, 0)] == 0
        assert by_pair[(1, 3)] == 0

    def test_canonical_added_capacity_totals_two_per_target(self, canonical):
        g, targets = canonical
        cnet = build_circulation_network(g, targets)
        plain, _ = build_associate_graph(cnet.net)
        added = plain.arcs[len(cnet.net.arcs):]
        assert sum(a.cap for a in added) == 2 * len(targets)


class TestCirculation:
    def test_zero_lowers_trivially_feasible(self):
        net = BoundedFlowNetwork(3, (Arc(0, 1), Arc(1, 2)), 0, 2)
        fa = feasible_circulation(net)
        assert fa is not None and fa.flow == (0, 0)

    def test_two_node_cycle(self):
        net = BoundedFlowNetwork(2, (Arc(0, 1, 1, 1), Arc(1, 0, 0, 1)), 0, 1)
        fa = feasible_circulation(net)
        assert fa is not None and fa.flow == (1, 1)

    def test_infeasible_returns_none(self):
        # lower bound 1 into a dead end can never circulate
        net = BoundedFlowNetwork(3, (Arc(0, 1, 1, 1), Arc(0, 2, 0, 1)), 0, 2)
        assert feasible_circulation(net) is None

    def test_transformed_networks_always_feasible(self):
        rng = random.Random(77)
        for _ in range(100):
            g = random_graph(rng, 10, 20)
            targets = random_targets(rng, g.n)
            cnet = build_circulation_network(g, targets)
            assert feasible_circulation(cnet.net) is not None


class TestMinFlow:
    def test_no_lower_bounds_means_zero(self):
        net = BoundedFlowNetwork(3, (Arc(0, 1), Arc(1, 2)), 0, 2)
        fa = min_flow_with_bounds(net)
        assert fa.value == 0

    def test_forced_chain(self):
        net = BoundedFlowNetwork(3, (Arc(0, 1, 1, 1), Arc(1, 2, 1, 1)), 0, 2)
        fa = min_flow_with_bounds(net)
        assert fa.value == 1
        validate_assignment(net, fa)

    def test_infeasible_raises(self):
        net = BoundedFlowNetwork(3, (Arc(0, 1, 1, 1), Arc(0, 2, 0, 1)), 0, 2)
        with pytest.raises(InfeasibleFlowError, match="no feasible flow"):
            min_flow_with_bounds(net)

    def test_canonical_transformed_min_flow_is_one(self, canonical):
        g, targets = canonical
        cnet = build_circulation_network(g, targets)
        assert min_flow_with_bounds(cnet.net).value == 1

    def test_min_not_above_circulation_value(self):
        rng = random.Random(55)
        for _ in range(200):
            net = random_network(rng, max_n=8, with_lowers=True)
            arcs = net.arcs + (Arc(net.sink, net.source, 0, INF),)
            net = BoundedFlowNetwork(net.node_count, arcs, net.source, net.sink)
            circ = feasible_circulation(net)
            if circ is None:
                with pytest.raises(InfeasibleFlowError):
                    min_flow_with_bounds(net)
                continue
            fa = min_flow_with_bounds(net)
            validate_assignment(net, fa)
            assert fa.value <= circ.value

    def test_cancellation_through_forward_arcs(self):
        # a real reverse path lets the minimum drop to zero net flow
        net = BoundedFlowNetwork(
            2, (Arc(0, 1, 1, 1), Arc(1, 0, 0, 1)), 0, 1)
        fa = min_flow_with_bounds(net)
        assert fa.value == 0
        assert fa.flow == (1, 1)

    def test_minimality_against_enumeration(self):
        rng = random.Random(202)
        checked = 0
        for _ in range(150):
            n = rng.randint(2, 5)
            s, t = 0, n - 1
            arcs = []
            for _ in range(rng.randint(1, 7)):
                a, b = rng.randrange(n), rng.randrange(n)
                if a == b or b == s or a == t:
                    continue
                cap = rng.randint(1, 2)
                arcs.append(Arc(a, b, rng.randint(0, cap), cap))
            if not arcs:
                continue
            net = BoundedFlowNetwork(n, tuple(arcs), s, t)
            ref = brute_min_flow_value(
                n, [(a.tail, a.head, a.lower, a.cap) for a in net.arcs], s, t)
            if ref is None:
                with pytest.raises(InfeasibleFlowError):
                    min_flow_with_bounds(net)
                continue
            fa = min_flow_with_bounds(net)
            validate_assignment(net, fa)
            assert fa.value == ref
            checked += 1
        assert checked > 50

    def test_circulation_verdict_against_enumeration(self):
        rng = random.Random(303)
        agree = 0
        for _ in range(150):
            n = rng.randint(2, 5)
            s, t = 0, n - 1
            arcs = [Arc(t, s, 0, 3)] if rng.random() < 0.5 else []
            for _ in range(rng.randint(1, 6)):
                a, b = rng.randrange(n), rng.randrange(n)
                if a == b or b == s or a == t:
                    continue
                cap = rng.randint(1, 2)
                arcs.append(Arc(a, b, rng.randint(0, cap), cap))
            if not arcs:
                continue
            net = BoundedFlowNetwork(n, tuple(arcs), s, t)
            expected = brute_circulation_exists(
                n, [(a.tail, a.head, a.lower, a.cap) for a in net.arcs])
            got = feasible_circulation(net)
            assert (got is not None) == expected
            if got is not None:
                balance = [0] * n
                for a, f in zip(net.arcs, got.flow):
                    balance[a.tail] -= f
                    balance[a.head] += f
                assert balance == [0] * n  # conserves everywhere
            agree += 1
        assert agree > 50


def _unit_instance(n, seed):
    rng = random.Random(seed)
    edges = set()
    while len(edges) < 3 * n:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and b != 0 and a != n - 1:
            edges.add((a, b))
    return BoundedFlowNetwork(
        n, tuple(Arc(a, b) for a, b in sorted(edges)), 0, n - 1)


def test_unit_capacity_scaling_subquadratic():
    # doubling the arc count at fixed density should cost well under 4x
    small = _unit_instance(6000, 1)
    big = _unit_instance(12000, 2)
    t_small = min(_timed(small) for _ in range(3))
    t_big = min(_timed(big) for _ in range(3))
    assert t_big < 4 * t_small + 0.05


def _timed(net):
    t0 = time.perf_counter()
    max_flow_dinic(net)
    return time.perf_counter() - t0


def _random_networks(seed, count, **kwargs):
    rng = random.Random(seed)
    return [random_network(rng, **kwargs) for _ in range(count)]


def _general_instance(n, seed):
    """Network with capacities 1..3, some unbounded arcs, and about a tenth
    of the arcs at the source and at the sink.  No unbounded arc leaves the
    source, so the maximum stays finite."""
    rng = random.Random(seed)
    caps = {}
    while len(caps) < 3 * n:
        a = 0 if rng.random() < 0.1 else rng.randrange(n)
        b = n - 1 if rng.random() < 0.1 else rng.randrange(n)
        if a != b and b != 0 and a != n - 1 and (a, b) not in caps:
            caps[a, b] = INF if a and rng.random() < 0.1 else rng.randint(1, 3)
    return BoundedFlowNetwork(
        n, tuple(Arc(a, b, 0, c) for (a, b), c in sorted(caps.items())),
        0, n - 1)


def _bounded_networks(seed, count):
    """Random networks with lower bounds, closed by an unbounded return
    arc from sink to source."""
    nets = []
    for net in _random_networks(seed, count, max_n=8, with_lowers=True):
        arcs = net.arcs + (Arc(net.sink, net.source, 0, INF),)
        nets.append(BoundedFlowNetwork(net.node_count, arcs, net.source,
                                       net.sink))
    return nets


def _cover_circulations(seed, count):
    """Small node-split circulation networks; their first circulation
    often carries more than the minimum, so cancellation has work to do."""
    rng = random.Random(seed)
    nets = []
    for _ in range(count):
        g = random_graph(rng, 10, 20)
        nets.append(build_circulation_network(g, random_targets(rng, g.n)).net)
    return nets


def _circulation_instance(n, seed):
    g = generate_er(n, 3, seed)
    targets = random.Random(seed).sample(range(n), n // 3)
    return build_circulation_network(g, targets).net


def _digest(solver, nets):
    """SHA-256 over every (value, per-arc flow) pair, ``None`` where the
    network admits no feasible flow."""
    out = []
    for net in nets:
        try:
            fa = solver(net)
        except InfeasibleFlowError:
            fa = None
        out.append(None if fa is None else (fa.value, fa.flow))
    return hashlib.sha256(repr(out).encode()).hexdigest()


# Recorded from the implementation that ran a list-based generic Dinic, a
# vectorized unit-capacity Dinic above 2000 arcs and a hand-wired
# cancellation solver; the single residual engine must reproduce them.
# "circulation" and "min_flow" coincide because the first circulation on
# those networks is already minimal; "min_flow_cover" and
# "min_flow_midsize" are where cancellation moves flow.  Each value is
# ``_digest(*_golden_case(name))``.
GOLDEN = {
    "unit":
        "1aa176578998713c2e45ea3232c06995d26ea164a4514ef699d7927ec06a8b7e",
    "unit_midsize":
        "06be6f845e7fd4456bf999db52e07f7530ff9a563e54a21205dfc688c8fe1860",
    "unit_target_network":
        "13c61b110cc412a36e34fcc10594b6d1bcee20f9991d7d8e512060db7073b2c5",
    "general":
        "34752633f80a52bc37bfc2c14c717ad4bdfdb8a65fdf955afaa9df105c1eaa0e",
    "general_midsize":
        "e7f25846a1c7be8d80a0f0b586a2fb1a1a6d8bc79882badf10816723bc51b4a4",
    "circulation":
        "bcbd4eba407500cd480256fac2c37a20be51ec2697f8bc12a565f976a7421fd2",
    "min_flow":
        "bcbd4eba407500cd480256fac2c37a20be51ec2697f8bc12a565f976a7421fd2",
    "min_flow_cover":
        "87897b2afd3f43bfbc2549738f44942eae4b9a0e38b68961cac8453109de5c17",
    "min_flow_midsize":
        "b54c16825b6bbe6d76153c27ece9227845b54e6c84c6c8f6f026ea0d862a11cd",
}


def _golden_case(name):
    """The solver and networks behind one golden digest."""
    if name == "unit":
        return max_flow_dinic, _random_networks(99, 300, max_cap=1)
    if name == "unit_midsize":
        return max_flow_dinic, [_unit_instance(900, seed=5)]
    if name == "unit_target_network":
        g = generate_er(1000, 3, 3)
        targets = random.Random(3).sample(range(1000), 300)
        return max_flow_dinic, [build_target_network(g, targets).net]
    if name == "general":
        return max_flow_dinic, _random_networks(123, 300)
    if name == "general_midsize":
        return max_flow_dinic, [_general_instance(1000, seed=8)]
    if name == "circulation":
        return feasible_circulation, _bounded_networks(55, 300)
    if name == "min_flow":
        return min_flow_with_bounds, _bounded_networks(55, 300)
    if name == "min_flow_cover":
        return min_flow_with_bounds, _cover_circulations(77, 200)
    return min_flow_with_bounds, [_circulation_instance(700, seed=7)]


# "unit" and "unit_midsize" run as TestMaxFlow.test_golden_unit_assignments*
@pytest.mark.parametrize("name", [name for name in GOLDEN
                                  if name not in ("unit", "unit_midsize")])
def test_golden_assignments(name):
    assert _digest(*_golden_case(name)) == GOLDEN[name]


def _dead_end_instance(size, seed):
    """A four-arc source-to-sink path beside a region of ``size`` nodes
    that the source enters directly.  The region's only way out is a
    ten-arc detour to the sink, so no region node lies on a shortest
    path."""
    rng = random.Random(seed)
    region = range(4, 4 + size)
    detour = range(4 + size, 14 + size)
    t = 14 + size
    arcs = [Arc(0, 1), Arc(1, 2), Arc(2, 3), Arc(3, t)]
    arcs += [Arc(0, v) for v in region[:10]]
    for v in region:
        arcs += [Arc(v, rng.choice(region)), Arc(v, rng.choice(region))]
        if v % 2:
            arcs.append(Arc(v, detour[0]))
    arcs += [Arc(a, b) for a, b in zip(detour, detour[1:])]
    arcs.append(Arc(detour[-1], t))
    return BoundedFlowNetwork(t + 1, tuple(arcs), 0, t)


def _deep_thin_instance(length, size, seed):
    """A path of ``length`` arcs from source to sink beside a region of
    ``size`` nodes that the source enters directly and that has no way
    out, so a phase sweeps the region and then hundreds of one-node
    layers."""
    rng = random.Random(seed)
    t = length + size
    region = range(length, t)
    arcs = [Arc(v, v + 1) for v in range(length - 1)] + [Arc(length - 1, t)]
    arcs += [Arc(0, v) for v in region[:10]]
    arcs += [Arc(v, rng.choice(region)) for v in region for _ in range(2)]
    return BoundedFlowNetwork(t + 1, tuple(arcs), 0, t)


def _phase_slots(engine, s, t):
    """The next phase of ``engine`` as the (tail, slot) pairs that its DFS
    scans, node by node in ascending node order, and its CSR; ``None`` for
    both when the sink is out of reach.  Checks that the phase's own node
    ids name distinct network nodes, that each node's slots leave it, that
    ``nxt`` names each slot's head, and that the source and the sink come
    last."""
    csr = engine._phase_csr(s, t)
    if csr is None:
        return None, None
    flat, nxt, indptr = csr
    heads = engine._head_np.tolist()
    tails = [heads[q ^ 1] for q in range(len(heads))]
    rows = [flat[a:b] for a, b in zip(indptr, indptr[1:])]
    nodes = [tails[row[0]] for row in rows] + [t]
    assert all(tails[q] == u for u, row in zip(nodes, rows) for q in row)
    assert [nodes[v] for v in nxt] == [heads[q] for q in flat]
    assert len(set(nodes)) == len(nodes) and nodes[-2] == s
    return [(u, q) for u, row in sorted(zip(nodes, rows)) for q in row], csr


def _slot_case(name):
    if name == "dead_end":
        return [_dead_end_instance(100, 4), _dead_end_instance(1000, 4)]
    if name == "deep_thin":
        return [_deep_thin_instance(500, 1000, 4)]
    return _golden_case(name)[1]


# small random networks, single networks of 2500 to 3000 arcs, and a
# phase of about 500 layers.  Every phase is checked, the first and each
# one after a blocking flow, against the residual it starts from.
@pytest.mark.parametrize("name", ["unit", "unit_midsize", "general",
                                  "general_midsize", "dead_end", "deep_thin"])
def test_first_phase_scans_only_shortest_path_slots(name):
    for net in _slot_case(name):
        s, t = net.source, net.sink
        engine = _ResidualDinic(net.node_count, net.tail, net.head, net.cap)
        heads = engine._head_np.tolist()
        while True:
            slots = [(heads[q ^ 1], heads[q], c)
                     for q, c in enumerate(engine.cap)]
            scanned, csr = _phase_slots(engine, s, t)
            # the reference gives no slots exactly when the sink is out of
            # reach
            assert scanned == (shortest_path_slots(slots, s, t) or None)
            if csr is None:
                break
            engine._blocking_flow(*csr)


def test_phase_without_path_to_sink_is_none():
    # the dead-end network without the arcs into its sink
    net = _dead_end_instance(1000, 4)
    arcs = tuple(a for a in net.arcs if a.head != net.sink)
    cut = BoundedFlowNetwork(net.node_count, arcs, 0, net.sink)
    engine = _ResidualDinic(cut.node_count, cut.tail, cut.head, cut.cap)
    assert _phase_slots(engine, cut.source, cut.sink) == (None, None)


def _augmenting_path_exists(net, fa):
    """Breadth-first search over the residual network of ``fa``, written
    apart from the library: a maximum flow leaves no source-to-sink path."""
    out = [[] for _ in range(net.node_count)]
    for a, f in zip(net.arcs, fa.flow):
        if a.cap == INF or f < a.cap:
            out[a.tail].append(a.head)
        if f > a.lower:
            out[a.head].append(a.tail)
    seen = {net.source}
    queue = deque([net.source])
    while queue:
        for v in out[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return net.sink in seen


def _check_target_network(n, kind, fraction):
    g = (generate_er(n, 3, 11) if kind == "er"
         else generate_sf(n, 3, 3.0, 11))
    targets = random.Random(12).sample(range(n), int(fraction * n))
    net = build_target_network(g, targets).net
    fa = max_flow_dinic(net)
    validate_assignment(net, fa)
    assert not _augmenting_path_exists(net, fa)
    verify_optimality(net, fa)
    assert 0 < fa.value < len(targets)


class TestOptimalityAtScale:
    # beyond the reach of the exhaustive oracles: a valid flow with no
    # augmenting path left is maximum (max-flow/min-cut)
    @pytest.mark.parametrize("kind", ["er", "sf"])
    @pytest.mark.parametrize("fraction", [0.1, 1.0])
    def test_target_network_10k(self, kind, fraction):
        _check_target_network(10_000, kind, fraction)

    # er-0.1 and sf-1.0 are the two 1e5 shapes of the benchmark
    @pytest.mark.parametrize("kind, fraction", [("er", 0.1), ("er", 1.0),
                                                ("sf", 0.1), ("sf", 1.0)])
    def test_target_network_100k(self, kind, fraction):
        _check_target_network(100_000, kind, fraction)

    def test_general_capacities_with_unbounded_arcs(self):
        net = _general_instance(1000, seed=3)
        assert len(net.arcs) == 3000
        assert sum(a.cap == INF for a in net.arcs) > 100
        fa = max_flow_dinic(net)
        validate_assignment(net, fa)
        assert not _augmenting_path_exists(net, fa)
        verify_optimality(net, fa)
        assert fa.value > 0


class TestVerifyOptimality:
    def test_accepts_maximum_flows(self):
        for net in _random_networks(123, 300):
            verify_optimality(net, max_flow_dinic(net))

    def test_rejects_flow_with_augmenting_path(self):
        rejected = 0
        for net in _random_networks(123, 300):
            if max_flow_dinic(net).value:
                with pytest.raises(ValueError, match="augmenting path"):
                    verify_optimality(
                        net, FlowAssignment((0,) * len(net.arcs), 0))
                rejected += 1
        assert rejected > 100

    def test_rejects_wrong_value(self):
        net = _general_instance(1000, seed=3)
        fa = max_flow_dinic(net)
        with pytest.raises(ValueError, match="cut capacity"):
            verify_optimality(net, FlowAssignment(fa.flow, fa.value + 1))

    def test_rejects_invalid_flow(self):
        net = BoundedFlowNetwork(2, (Arc(0, 1, 0, 1),), 0, 1)
        with pytest.raises(ValueError, match="bounds"):
            verify_optimality(net, FlowAssignment((2,), 2))

    def test_lower_bound_into_source_side_counts_against_cut(self):
        # s=0, a=1, b=2, t=3; b->a must carry 1, so a->t is full and the
        # cut {s, a} has capacity 1 (s->b) - 1 (b->a) + 1 (a->t)
        net = BoundedFlowNetwork(
            4, (Arc(0, 1, 0, 2), Arc(0, 2, 0, 1), Arc(2, 1, 1, 1),
                Arc(1, 3, 0, 1)), 0, 3)
        verify_optimality(net, FlowAssignment((0, 1, 1, 1), 1))
        with pytest.raises(ValueError, match="cut capacity"):
            verify_optimality(net, FlowAssignment((0, 1, 1, 1), 2))


class TestInt64Range:
    def test_capacity_beyond_int64_rejected(self):
        with pytest.raises(ValueError, match="int64"):
            BoundedFlowNetwork(2, (Arc(0, 1, 0, 2 ** 63),), 0, 1)

    def test_sentinel_beyond_int64_rejected(self):
        # each capacity fits, but no int64 exceeds their sum
        with pytest.raises(ValueError, match="int64"):
            BoundedFlowNetwork(
                3, (Arc(0, 1, 0, 2 ** 62), Arc(0, 1, 0, 2 ** 62),
                    Arc(1, 2, 0, INF)), 0, 2)

    def test_value_may_exceed_int64(self):
        # residual capacities stay in range even when the total does not
        net = BoundedFlowNetwork(
            2, (Arc(0, 1, 0, 2 ** 63 - 1), Arc(0, 1, 0, 2 ** 63 - 1)), 0, 1)
        fa = max_flow_dinic(net)
        assert fa.value == 2 ** 64 - 2
        assert fa.flow == (2 ** 63 - 1, 2 ** 63 - 1)
