import hashlib
import itertools
import math
import random
import time
import warnings

import numpy as np
import pytest

import targetflow.flow
from targetflow import (INF, Arc, BoundedFlowNetwork, DiGraph,
                        InfeasibleFlowError, build_associate_graph,
                        build_circulation_network, build_target_network,
                        feasible_circulation, generate_er, generate_sf,
                        max_flow_dinic, min_flow_with_bounds,
                        validate_assignment, verify_optimality)
from targetflow.flow import FlowAssignment, _ResidualDinic

from conftest import random_graph, random_targets
from reference import (brute_circulation_exists, brute_min_flow_value,
                       edmonds_karp_value, residual_reach,
                       sample_feasible_flow_value, shortest_path_slots)


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


@pytest.mark.parametrize("make", [
    lambda: BoundedFlowNetwork(3, (Arc(0, 1.7), Arc(1.2, 2)), 0, 2),
    lambda: BoundedFlowNetwork.from_columns(
        3, 0, 2, np.array([0.0, 1.0]), np.array([1.0, 2.0]), [0, 0], [1, 1]),
    lambda: BoundedFlowNetwork(3, (Arc(0, 2 ** 64),), 0, 2),
    lambda: BoundedFlowNetwork(3.5, (Arc(0, 1),), 0, 2),
    lambda: BoundedFlowNetwork.from_columns(3, 0.0, 2, [0], [2], [0], [1]),
], ids=["arc-endpoints", "float-columns", "endpoint-past-uint64",
        "node-count", "source"])
def test_non_integer_id_rejected(make):
    # a cast to int64 would truncate 1.7 and 1.2 to the path 0 -> 1 -> 2
    with pytest.raises(ValueError, match="must be integers"):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: BoundedFlowNetwork(3, (Arc(0, 1), Arc(1, -1)), 0, 2),
     "arc endpoint -1 out of range for n=3"),
    (lambda: BoundedFlowNetwork.from_columns(
        2, 0, 1, [0], [1], [0], [1], unbounded=[-1]),
     "unbounded arc -1 out of range for n=1"),
    (lambda: BoundedFlowNetwork.from_columns(
        2, 0, 1, [0], [1], [0], [1], unbounded=[5]),
     "unbounded arc 5 out of range for n=1"),
], ids=["arc-endpoint", "unbounded-negative", "unbounded-past-m"])
def test_id_out_of_range_rejected(make, message):
    # a negative unbounded index would wrap to the last arc
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


@pytest.mark.parametrize("tail, head, lower, cap, sizes", [
    ([0, 1], [1], [0, 0], [1, 1], "tail 2, head 1, lower 2, cap 2"),
    ([0], [2], [0, 0], [1, 1], "tail 1, head 1, lower 2, cap 2"),
    ([0, 1], [1, 2], [0, 0], [1], "tail 2, head 2, lower 2, cap 1"),
], ids=["head-short", "endpoints-short", "cap-short"])
def test_arc_columns_of_unequal_length_rejected(tail, head, lower, cap, sizes):
    # zipped, the columns would shrink to their shortest
    with pytest.raises(ValueError) as exc:
        BoundedFlowNetwork.from_columns(3, 0, 2, tail, head, lower, cap)
    assert str(exc.value) == f"arc columns differ in length: {sizes}"


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
                check(net, FlowAssignment((f,), 0, np.array([True, False])))


@pytest.mark.parametrize("flow, message", [
    ((1, 1), "flow vector length mismatch"),
    ((1, 0, 0), "conservation violated at node 1"),
    ((1, 1, 0), "conservation violated at node 2"),
], ids=["length", "conservation", "conservation-past-the-first"])
def test_invalid_assignment_rejected(flow, message):
    # the path 0 -> 1 -> 2 -> 3
    net = BoundedFlowNetwork(4, (Arc(0, 1), Arc(1, 2), Arc(2, 3)), 0, 3)
    with pytest.raises(ValueError) as exc:
        validate_assignment(net, FlowAssignment(flow, 1))
    assert str(exc.value) == message


# 1e20 + 8192 is a tie between two floats that rounds down to 1e20, so a
# float sum takes 1e20 into node 1 in both flows: it would reject the first,
# which is balanced, and pass the second, whose inflow is 8192 too large
@pytest.mark.parametrize("flow, balanced", [
    ((1e20, 8192.0, 8192.0, 1e20 + 16384), True),
    ((1e20, 8192.0, 0.0, 1e20), False),
], ids=["balanced", "unbalanced"])
def test_integral_float_flows_summed_exactly(flow, balanced):
    arcs = (Arc(0, 1, 0, INF),) * 3 + (Arc(1, 2, 0, INF),)
    fa = FlowAssignment(flow, int(flow[-1]))
    if balanced:
        validate_assignment(BoundedFlowNetwork(3, arcs, 0, 2), fa)
    else:
        with pytest.raises(ValueError, match="violated at node 1"):
            validate_assignment(BoundedFlowNetwork(3, arcs, 0, 2), fa)


def test_cut_sums_integral_float_flows_exactly():
    # 2^53 + 1 is no float: a float sum across the cut reads 2^53
    net = BoundedFlowNetwork(2, (Arc(0, 1, 0, 2 ** 53), Arc(0, 1)), 0, 1)
    verify_optimality(net, FlowAssignment((2.0 ** 53, 1.0), 2 ** 53 + 1,
                                          np.array([True, False])))


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
        # the unbounded path beside 2 on the finite one.  The unbounded
        # path leaves every cut holding the source and not the sink.
        for net, fa in zip(_unbounded_path_networks(),
                           (FlowAssignment((1, 1), 1),
                            FlowAssignment((2, 8, 8, 2), 10))):
            validate_assignment(net, fa)
            inner = net.node_count - 2
            for middle in itertools.product((False, True), repeat=inner):
                cut = np.array((True, *middle, False))
                with pytest.raises(ValueError, match="unbounded arc leaves"):
                    verify_optimality(net, fa._replace(cut=cut))

    def test_flow_above_sentinel_is_no_violation(self):
        # around the unbounded cycle 1 -> 2 -> 1, whose sentinel is 3, up
        # to a flow beyond int64
        net = BoundedFlowNetwork(
            4, (Arc(0, 1, 0, 1), Arc(1, 2, 0, INF), Arc(2, 1, 0, INF),
                Arc(1, 3, 0, 1)), 0, 3)
        assert net.cap.tolist() == [1, 3, 3, 1]
        for f in (100, 2 ** 70):
            # the cuts {0} and {0, 1, 2}, the second around the cycle
            for cut in ([True, False, False, False],
                        [True, True, True, False]):
                fa = FlowAssignment((1, f, f, 1), 1, np.array(cut))
                validate_assignment(net, fa)
                verify_optimality(net, fa)


class TestMaxFlow:
    def test_single_arc(self):
        net = BoundedFlowNetwork(2, (Arc(0, 1, 0, 1),), 0, 1)
        fa = max_flow_dinic(net)
        assert fa.value == 1 and fa.flow.tolist() == [1]
        assert fa.cut.tolist() == [True, False]
        assert fa.flow.dtype == np.int64 and not fa.flow.flags.writeable

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
        plain = build_associate_graph(net)
        assert plain.arcs[:2] == net.arcs  # the images lead, in order
        added = plain.arcs[len(net.arcs):]
        assert all(a.cap == 0 for a in added)

    def test_single_bounded_arc(self):
        net = BoundedFlowNetwork(2, (Arc(0, 1, 1, 1),), 0, 1)
        plain = build_associate_graph(net)
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
        plain = build_associate_graph(cnet.net)
        added = plain.arcs[len(cnet.net.arcs):]
        assert sum(a.cap for a in added) == 2 * len(targets)


class TestCirculation:
    def test_zero_lowers_trivially_feasible(self):
        net = BoundedFlowNetwork(3, (Arc(0, 1), Arc(1, 2)), 0, 2)
        fa = feasible_circulation(net)
        assert fa is not None and fa.flow.tolist() == [0, 0]

    def test_two_node_cycle(self):
        net = BoundedFlowNetwork(2, (Arc(0, 1, 1, 1), Arc(1, 0, 0, 1)), 0, 1)
        fa = feasible_circulation(net)
        assert fa is not None and fa.flow.tolist() == [1, 1]

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

    def test_second_unbounded_return_arc_raises(self):
        # besides the return arc, an unbounded sink -> source arc would let
        # the cancellation push the INF sentinel back to the source
        path = (Arc(0, 1, 1, 1), Arc(1, 2, 1, 1))
        for back in ((Arc(2, 0, 0, INF), Arc(2, 0, 0, INF)),
                     (Arc(2, 0, 1, INF),)):
            net = BoundedFlowNetwork(3, path + back, 0, 2)
            with pytest.raises(ValueError, match="unbounded"):
                min_flow_with_bounds(net)

    def test_finite_sink_to_source_arc_bounds_the_cancellation(self):
        net = BoundedFlowNetwork(
            3, (Arc(0, 1, 1, 1), Arc(1, 2, 1, 1), Arc(2, 0, 0, 5)), 0, 2)
        fa = min_flow_with_bounds(net)
        assert fa.flow.tolist() == [1, 1, 5] and fa.value == -4
        validate_assignment(net, fa)

    def test_caller_return_arc_carries_no_negative_flow(self):
        # the finite return arc carries the canceled flow back; the
        # caller's unbounded one stays at zero, and the value is the net
        # source-to-sink flow of the other arcs, as without it
        net = BoundedFlowNetwork(
            3, (Arc(0, 1, 1, 1), Arc(1, 2, 1, 1), Arc(2, 0, 0, INF),
                Arc(2, 0, 0, 5)), 0, 2)
        fa = min_flow_with_bounds(net)
        assert fa.flow.tolist() == [1, 1, 0, 5]
        assert fa.value == -4 and fa.cut is None
        validate_assignment(net, fa)

    def test_cancel_flow_is_certified(self, monkeypatch):
        # an engine whose maximum flow from the network's sink stops at its
        # second phase, though the sweep found a path: the flow it cancels
        # is not maximum, so no cut shows it maximum and the minimum flow
        # raises rather than answer with a flow that is not minimal
        g = generate_er(300, 3, 2)
        net = build_circulation_network(g, range(0, 300, 3)).net
        stopped = []

        class OnePhase(_ResidualDinic):
            def _phase_csr(self, s, t):
                layers = super()._phase_csr(s, t)
                if s != net.sink or layers is None:
                    return layers
                if hasattr(self, "phased"):
                    stopped.append(s)
                    self.cut = np.arange(self.n) == s
                    return None
                self.phased = True
                return layers
        validate_assignment(net, min_flow_with_bounds(net))
        monkeypatch.setattr(targetflow.flow, "_ResidualDinic", OnePhase)
        with pytest.raises(ValueError, match="cut capacity"):
            min_flow_with_bounds(net)
        assert stopped == [net.sink]

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
        assert fa.flow.tolist() == [1, 1]

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
        out.append(None if fa is None else (fa.value, tuple(fa.flow.tolist())))
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


# ``sha256(repr((value, flow)))`` of ``max_flow_dinic`` on the two 1e5
# target networks of the benchmark: ER with graph seed 1 and a tenth of
# the nodes as targets (``Random(2)``), value 5643, and SF with graph seed 1
# and every node a target, value 56568.  The first 16 hex digits of
# ``sha256(repr(flow))`` on the same flows are 4b2f771990d53165 (ER) and
# dbb03dee26dadd72 (SF).
GOLDEN_1E5 = {
    "er":
        "ead2b389a7adb81f5acf2f18e1ed29bc343a2c1aff1f815df6442c113fe70cdd",
    "sf":
        "bc0a70ead7e6c88417b95f9a7f523e849bb0631da7af9a90ee1960006ec5d3c3",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_1E5))
def test_golden_1e5_flows(kind):
    if kind == "er":
        g = generate_er(100_000, 3, 1)
        targets = random.Random(2).sample(range(100_000), 10_000)
    else:
        g = generate_sf(100_000, 3, 3, 1)
        targets = range(100_000)
    fa = max_flow_dinic(build_target_network(g, targets).net)
    flow = tuple(fa.flow.tolist())
    digest = hashlib.sha256(repr((fa.value, flow)).encode()).hexdigest()
    assert digest == GOLDEN_1E5[kind]


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
    """The next phase of ``engine`` as the (tail, slot) pairs it hands to
    its blocking flow, node by node in ascending node order, and the phase
    itself; ``None`` for both when the sink is out of reach.  Checks that
    the phase is layers from the sink's back to the source's, each by tail
    in ascending node order and then by slot, whose slots lead from the
    source into the sink layer by layer.  Checks that the CSR built on the
    phase gives distinct network nodes distinct ids, that each node's slots
    leave it, that ``res`` holds each slot's residual, that ``nxt`` names
    each slot's head, and that the source and the sink come last."""
    layers = _ResidualDinic._phase_csr(engine, s, t)
    if layers is None:
        return None, None
    heads = engine._head_np.tolist()
    tails = [heads[q ^ 1] for q in range(len(heads))]
    for layer in layers:
        layer = layer.tolist()
        assert layer == sorted(layer, key=lambda q: (tails[q], q))
    steps = [{(tails[q], heads[q]) for q in layer} for layer in layers]
    assert {v for _, v in steps[0]} == {t}
    assert {u for u, _ in steps[-1]} == {s}
    for near, far in zip(steps, steps[1:]):
        assert {v for _, v in far} == {u for u, _ in near}
    flat = np.concatenate(layers)
    res, nxt, indptr = _ResidualDinic._csr(engine, flat, t)
    flat = flat.tolist()
    assert res == engine.cap[flat].tolist()
    rows = [flat[a:b] for a, b in zip(indptr, indptr[1:])]
    nodes = [tails[row[0]] for row in rows] + [t]
    assert all(tails[q] == u for u, row in zip(nodes, rows) for q in row)
    assert [nodes[v] for v in nxt] == [heads[q] for q in flat]
    assert len(set(nodes)) == len(nodes) and nodes[-2] == s
    return [(u, q) for u, row in sorted(zip(nodes, rows)) for q in row], layers


def _slot_case(name):
    if name == "dead_end":
        return [_dead_end_instance(100, 4), _dead_end_instance(1000, 4)]
    if name == "deep_thin":
        return [_deep_thin_instance(500, 1000, 4)]
    return _golden_case(name)[1]


# small random networks, single networks of 2500 to 3000 arcs, and a
# phase of about 500 layers.  Every phase of ``max_flow`` is checked, the
# first and each one after a blocking flow and its write-back, against the
# residual it starts from, and so are the slots that the deferred
# acceptance of a depth-3 unit phase or the DFS is given.
@pytest.mark.parametrize("name", ["unit", "unit_midsize", "general",
                                  "general_midsize", "dead_end", "deep_thin"])
def test_first_phase_scans_only_shortest_path_slots(name):
    matched = []
    for net in _slot_case(name):
        engine = _ResidualDinic(net.node_count, net.tail, net.head, net.cap)
        heads = engine._head_np.tolist()
        found, given = [], []

        def checked_phase(s, t):
            slots = [(heads[q ^ 1], heads[q], c)
                     for q, c in enumerate(engine.cap.tolist())]
            scanned, layers = _phase_slots(engine, s, t)
            # the reference gives no slots exactly when the sink is out of
            # reach
            assert scanned == (shortest_path_slots(slots, s, t) or None)
            found.append(layers)
            return layers

        def checked_matching(layers):
            assert layers is found[-1]
            res = _ResidualDinic._serial_dictatorship(engine, layers)
            given.append(np.concatenate(layers).tolist())
            matched.append(res is not None)
            return res

        def checked_csr(slots, t):
            assert slots.tolist() == given[-1]
            return _ResidualDinic._csr(engine, slots, t)

        engine._phase_csr = checked_phase
        engine._serial_dictatorship = checked_matching
        engine._csr = checked_csr
        engine.max_flow(net.source, net.sink)
        assert found[-1] is None and None not in found[:-1]
        assert len(given) == len(found) - 1
    # of these, only the small unit networks have depth-3 unit phases
    assert any(matched) == (name == "unit")


def test_phase_without_path_to_sink_is_none():
    # the dead-end network without the arcs into its sink
    net = _dead_end_instance(1000, 4)
    arcs = tuple(a for a in net.arcs if a.head != net.sink)
    cut = BoundedFlowNetwork(net.node_count, arcs, 0, net.sink)
    engine = _ResidualDinic(cut.node_count, cut.tail, cut.head, cut.cap)
    assert _phase_slots(engine, cut.source, cut.sink) == (None, None)


def _assert_live_prefix(engine):
    """Each node's gathered slots are its positive-residual slots in
    ascending slot order."""
    tails = engine._head_np[np.arange(engine._head_np.size) ^ 1]
    live = np.flatnonzero(engine.cap > 0)
    want = live[np.argsort(tails[live], kind="stable")]
    got = engine._adj_np[engine._prefix(np.arange(engine.n))]
    assert got.tolist() == want.tolist()
    assert engine._live.tolist() == np.bincount(
        tails[live], minlength=engine.n).tolist()


class _Checked(_ResidualDinic):
    """An engine that checks its live prefixes when built and at the start
    of each phase, and records the ``(source, sink)`` of each check
    (``None`` at construction)."""

    entries = []

    def __init__(self, *args):
        super().__init__(*args)
        _assert_live_prefix(self)
        self.entries.append(None)

    def _phase_csr(self, s, t):
        _assert_live_prefix(self)
        self.entries.append((s, t))
        return super()._phase_csr(s, t)


# every golden case, the minimum flows' cancel flows among them; the
# certificate checks the engine's own cut without building another
@pytest.mark.parametrize("name", GOLDEN)
def test_live_prefix_at_every_entry(name, monkeypatch):
    monkeypatch.setattr(targetflow.flow, "_ResidualDinic", _Checked)
    monkeypatch.setattr(_Checked, "entries", [])
    solver, nets = _golden_case(name)
    assert _digest(solver, nets) == GOLDEN[name]
    if solver is min_flow_with_bounds:
        # a cancellation runs from each feasible network's sink
        assert {(net.sink, net.source) for net in nets} & set(_Checked.entries)
    if solver is max_flow_dinic:
        for net in nets[:20]:
            fa = max_flow_dinic(net)
            built = len(_Checked.entries)
            verify_optimality(net, fa)
            assert len(_Checked.entries) == built


class _SourceShunned(_ResidualDinic):
    """An engine that records, for each ``_refresh`` a maximum flow makes,
    the flow's source and how many of the moved slots have it as head."""

    refreshes = []

    def max_flow(self, s, t):
        self.source = s
        try:
            return super().max_flow(s, t)
        finally:
            del self.source

    def _refresh(self, moved):
        if hasattr(self, "source"):
            into = np.count_nonzero(self._head_np[moved] == self.source)
            self.refreshes.append((self.source, int(into)))
        super()._refresh(moved)


# the premise that lets max_flow filter its source's prefix and leave the
# rest to _refresh: no slot a phase moves enters the flow's source, in
# maximum flows and in the minimum flows' cancel flows from the sink
@pytest.mark.parametrize("name", GOLDEN)
def test_no_phase_moves_a_slot_into_the_source(name, monkeypatch):
    monkeypatch.setattr(targetflow.flow, "_ResidualDinic", _SourceShunned)
    monkeypatch.setattr(_SourceShunned, "refreshes", [])
    solver, nets = _golden_case(name)
    assert _digest(solver, nets) == GOLDEN[name]
    assert _SourceShunned.refreshes
    assert not any(into for _, into in _SourceShunned.refreshes)
    if solver is min_flow_with_bounds:
        # a cancellation runs from each feasible network's sink
        sources = {s for s, _ in _SourceShunned.refreshes}
        assert {net.sink for net in nets} & sources


def _both_ways(solver, net):
    """``solver(net)`` with the engine's deferred acceptance and with the
    DFS alone, and the number of phases the deferred acceptance took."""
    real = _ResidualDinic._serial_dictatorship
    taken = []

    def recording(self, layers):
        res = real(self, layers)
        taken.append(res is not None)
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_ResidualDinic, "_serial_dictatorship", recording)
        matched = solver(net)
        mp.setattr(_ResidualDinic, "_serial_dictatorship",
                   lambda self, layers: None)
        searched = solver(net)
    return matched, searched, sum(taken)


def _assert_same_flow(a, b):
    assert a.value == b.value
    assert a.flow.tolist() == b.flow.tolist()
    assert (a.cut is None) == (b.cut is None)
    if a.cut is not None:
        assert a.cut.tolist() == b.cut.tolist()


def _bipartite_graph(rng, n):
    """A graph whose edges all join an even node and an odd one, so no
    edge joins two even nodes."""
    edges = {(a, b) for a, b in ((rng.randrange(n), rng.randrange(n))
                                 for _ in range(3 * n)) if (a - b) % 2}
    return DiGraph(n, sorted(edges))


def _matching_cases(seed, count):
    """Target networks of small graphs with self-loops, over unions of one
    to three target sets, and of graphs whose targets, the even nodes,
    share no edge, so that no first phase has depth 3."""
    rng = random.Random(seed)
    for i in range(count):
        if i % 4 == 3:
            n = rng.randint(2, 30)
            yield build_target_network(_bipartite_graph(rng, n),
                                       range(0, n, 2)).net
            continue
        g = random_graph(rng, 40, 120)
        sets = [random_targets(rng, g.n) for _ in range(rng.randint(1, 3))]
        yield build_target_network(g, *sets).net


def test_deferred_acceptance_equals_the_dfs():
    taken = 0
    for net in _matching_cases(27, 400):
        matched, searched, count = _both_ways(max_flow_dinic, net)
        _assert_same_flow(matched, searched)
        taken += count
    assert taken > 200


def _layered_unit_network(rng):
    """Unit arcs from the source into a first layer, from there into a
    second and from there into the sink, in shuffled order, with a doubled
    arc into some first-layer nodes and out of some second-layer ones."""
    first, second = rng.randint(1, 8), rng.randint(1, 8)
    t = first + second + 1
    arcs = [Arc(0, u) for u in range(1, first + 1)]
    arcs += [Arc(v, t) for v in range(first + 1, t)]
    arcs += [rng.choice(arcs) for _ in range(rng.randint(0, 2))]
    arcs += [Arc(rng.randint(1, first), rng.randint(first + 1, t - 1))
             for _ in range(rng.randint(1, 3 * first))]
    rng.shuffle(arcs)
    return BoundedFlowNetwork(t + 1, tuple(arcs), 0, t)


def test_deferred_acceptance_on_doubled_arcs():
    rng = random.Random(31)
    taken = []
    for _ in range(300):
        matched, searched, count = _both_ways(max_flow_dinic,
                                              _layered_unit_network(rng))
        _assert_same_flow(matched, searched)
        taken.append(count)
    assert 0 < sum(taken) < len(taken)


def test_deferred_acceptance_declines_general_capacities():
    # the golden general networks meet depth-3 phases, none of unit arcs
    for net in _random_networks(123, 300):
        matched, searched, count = _both_ways(max_flow_dinic, net)
        _assert_same_flow(matched, searched)
        assert count == 0


@pytest.mark.parametrize("cases", [_bounded_networks(55, 300),
                                   _cover_circulations(77, 200)])
def test_deferred_acceptance_in_min_flow(cases):
    # the cancel flow from t runs on the residual network of a feasible one
    for net in cases:
        try:
            matched, searched, _ = _both_ways(min_flow_with_bounds, net)
        except InfeasibleFlowError:
            continue
        _assert_same_flow(matched, searched)


def test_long_displacement_chain_goes_to_the_dfs():
    # node i's out-copy prefers the in-copy of size + i - 1 to that of
    # size + i, so each round of deferred acceptance displaces one holder:
    # the rounds run out and the DFS takes the phase
    size = 3000
    edges = [(1, size + 1)] + [(i, size + j) for i in range(2, size + 1)
                               for j in (i - 1, i)]
    g = DiGraph(2 * size + 1, edges)
    net = build_target_network(g, range(g.n)).net
    phases = []
    real = _ResidualDinic._serial_dictatorship

    def recording(self, layers):
        res = real(self, layers)
        phases.append((len(layers), res is None))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_ResidualDinic, "_serial_dictatorship", recording)
        fa = max_flow_dinic(net)
    assert phases[0] == (3, True) and fa.value == size
    _assert_same_flow(fa, _both_ways(max_flow_dinic, net)[1])


def test_deferred_acceptance_runs_on_sf_all_target():
    net = build_target_network(generate_sf(100_000, 3, 3, 1),
                               range(100_000)).net
    matched, searched, count = _both_ways(max_flow_dinic, net)
    assert count == 1
    _assert_same_flow(matched, searched)


def _assert_cut_is_residual_reach(net, fa):
    """The engine's cut is what a search written apart from the library
    reaches in the residual network of its flow, and leaves out the sink:
    no augmenting path is left."""
    reach = residual_reach(net.node_count, net.arcs, fa.flow.tolist(),
                           net.source)
    assert net.sink not in reach
    assert np.flatnonzero(fa.cut).tolist() == sorted(reach)


def _check_target_network(n, kind, fraction):
    g = (generate_er(n, 3, 11) if kind == "er"
         else generate_sf(n, 3, 3.0, 11))
    targets = random.Random(12).sample(range(n), int(fraction * n))
    net = build_target_network(g, targets).net
    fa = max_flow_dinic(net)
    validate_assignment(net, fa)
    _assert_cut_is_residual_reach(net, fa)
    verify_optimality(net, fa)
    assert 0 < fa.value < len(targets)


class TestOptimalityAtScale:
    # beyond the reach of the exhaustive oracles: a valid flow with no
    # augmenting path left is maximum (max-flow/min-cut), and the cut the
    # engine ships is the residual reach of its flow
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
        _assert_cut_is_residual_reach(net, fa)
        verify_optimality(net, fa)
        assert fa.value > 0


class TestVerifyOptimality:
    def test_accepts_maximum_flows(self):
        for net in (_random_networks(99, 300, max_cap=1)
                    + _random_networks(123, 300)):
            fa = max_flow_dinic(net)
            _assert_cut_is_residual_reach(net, fa)
            verify_optimality(net, fa)

    def test_rejects_flow_with_augmenting_path(self):
        # the zero flow under the maximum flow's cut, claiming its own
        # value or the maximum: the cut's capacity exceeds the flow across
        rejected = 0
        for net in _random_networks(123, 300):
            fa = max_flow_dinic(net)
            if fa.value:
                for value in (0, fa.value):
                    zero = FlowAssignment(np.zeros_like(fa.flow), value,
                                          fa.cut)
                    with pytest.raises(ValueError, match="cut capacity"):
                        verify_optimality(net, zero)
                rejected += 1
        assert rejected > 100

    def test_rejects_wrong_value(self):
        net = _general_instance(1000, seed=3)
        fa = max_flow_dinic(net)
        with pytest.raises(ValueError, match="cut capacity"):
            verify_optimality(net, fa._replace(value=fa.value + 1))

    def test_rejects_invalid_flow(self):
        net = BoundedFlowNetwork(2, (Arc(0, 1, 0, 1),), 0, 1)
        with pytest.raises(ValueError, match="bounds"):
            verify_optimality(
                net, FlowAssignment((2,), 2, np.array([True, False])))

    def test_rejects_a_mask_that_is_no_source_sink_cut(self):
        net = _general_instance(1000, seed=3)
        fa = max_flow_dinic(net)
        s, t = net.source, net.sink
        without_source, with_sink = fa.cut.copy(), fa.cut.copy()
        without_source[s], with_sink[t] = False, True
        for cut, message in (
                (None, "not a mask"), (fa.cut[:-1], "not a mask"),
                (fa.cut.astype(np.int64), "not a mask"),
                (without_source, "hold the source"),
                (with_sink, "not the sink")):
            with pytest.raises(ValueError, match=message):
                verify_optimality(net, fa._replace(cut=cut))

    def test_lower_bound_into_source_side_counts_against_cut(self):
        # s=0, a=1, b=2, t=3; b->a must carry 1, so a->t is full and the
        # cut {s, a} has capacity 1 (s->b) - 1 (b->a) + 1 (a->t)
        net = BoundedFlowNetwork(
            4, (Arc(0, 1, 0, 2), Arc(0, 2, 0, 1), Arc(2, 1, 1, 1),
                Arc(1, 3, 0, 1)), 0, 3)
        cut = np.array([True, True, False, False])
        verify_optimality(net, FlowAssignment((0, 1, 1, 1), 1, cut))
        with pytest.raises(ValueError, match="cut capacity"):
            verify_optimality(net, FlowAssignment((0, 1, 1, 1), 2, cut))


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
        assert fa.flow.tolist() == [2 ** 63 - 1, 2 ** 63 - 1]
