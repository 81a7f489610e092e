"""Minimum target path cover and driver allocation, via maximum flow.

The count computed here is the minimum number of directed paths in a
vertex-disjoint union of simple paths and cycles that covers the target set
(cycles are free: one source can reach into any number of them), floored
at one.  It is the fewest control sources when each drives one path from
its head.  Under the Kalman target rank test it is an upper bound: inputs
on single nodes, or one input on several nodes, can pass with fewer.

Two equivalent routes are provided:

* :func:`solve` converts the instance into a unit-capacity flow network by
  node splitting and reads the cover off a maximum flow; the minimum path
  count is ``|targets| - maxflow``.
* :func:`solve_via_circulation` keeps the intermediate network with unit
  lower bounds on target nodes and minimizes the source-to-sink flow
  directly.  It must agree with :func:`solve` and exists as a cross-check.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .flow import FlowAssignment, max_flow_dinic, min_flow_with_bounds
from .graph import DiGraph, _repeats
from .network import BoundedFlowNetwork

TAG_INJECT = "inject"
TAG_COLLECT = "collect"
TAG_RELAY = "relay"
TAG_EDGE = "edge"
TAG_SOURCE = "source"
TAG_SINK = "sink"
TAG_SPLIT = "split"
TAG_RETURN = "return"


@dataclass(frozen=True)
class PathCover:
    """Vertex-disjoint simple paths and cycles; a length-1 cycle is a
    self-loop."""

    paths: tuple[tuple[int, ...], ...]
    cycles: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Solution:
    cover: PathCover
    min_drivers: int
    flow_value: int


@dataclass(frozen=True)
class DriverAllocation:
    """Nonzero pattern of the input matrix: ``attachments`` holds
    (driver index, node id) pairs, driver indices in ``[0, driver_count)``."""

    driver_count: int
    attachments: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class TargetFlowNetwork:
    """Node-split unit-capacity network whose maximum flow counts the
    target-to-target links of an optimal cover.

    Layout over ``2n + 2`` nodes: the in-copy of graph node ``v`` is ``v``,
    its out-copy is ``n + v``; node ``2n`` collects finished paths and node
    ``2n + 1`` injects them (the flow problem runs from ``2n + 1`` to
    ``2n``).  Arc classes, in construction order: "inject" arcs from the
    injector to each target's out-copy, "collect" arcs from each target's
    in-copy to the collector, "relay" arcs through every non-target, and
    one "edge" arc per graph edge from tail out-copy to head in-copy.
    ``edge_arcs[i]`` is the arc index carrying graph edge ``i``.
    """

    net: BoundedFlowNetwork
    n: int
    targets: tuple[int, ...]
    edge_arcs: range


@dataclass(frozen=True)
class CirculationNetwork:
    """Node-split network with unit lower bounds on target pass-through
    arcs, a unit source/sink arc per node and an unbounded return arc;
    its minimum source-to-sink flow is the minimum path count."""

    net: BoundedFlowNetwork
    n: int
    targets: tuple[int, ...]
    edge_arcs: range
    return_arc: int


def _checked_targets(g: DiGraph, targets) -> tuple[int, ...]:
    try:  # index() takes Python and numpy integers, not a float or string
        members = sorted(set(operator.index(v) for v in targets))
    except TypeError:
        raise ValueError("target ids must be integers") from None
    if not members:
        raise ValueError("empty target set")
    if members[0] < 0 or members[-1] >= g.n:
        raise ValueError(f"target out of range for n={g.n}: {members}")
    return tuple(members)


def build_target_network(g: DiGraph, targets) -> TargetFlowNetwork:
    """Split every node into in/out copies and wire the flow problem whose
    value is ``|targets| - (minimum path count)``.

    Targets get an inject arc into their out-copy and a collect arc out of
    their in-copy; non-targets get a relay arc between their copies; every
    graph edge becomes an arc from tail out-copy to head in-copy.  All
    capacities are one.
    """
    members = _checked_targets(g, targets)
    n, k, m = g.n, len(members), g.tail.size
    chosen = np.array(members, dtype=np.int64)
    relay = np.ones(n, dtype=bool)
    relay[chosen] = False
    relay = np.flatnonzero(relay)
    collector, injector = 2 * n, 2 * n + 1
    tail, head = np.concatenate((
        np.full(k, injector), chosen, relay, g.tail + n,
        chosen + n, np.full(k, collector), relay + n, g.head)).reshape(2, -1)
    net = BoundedFlowNetwork.from_columns(
        2 * n + 2, injector, collector, tail, head,
        np.zeros(tail.size, dtype=np.int64),
        np.ones(tail.size, dtype=np.int64),
        ((TAG_INJECT, k), (TAG_COLLECT, k), (TAG_RELAY, n - k), (TAG_EDGE, m)))
    return TargetFlowNetwork(net, n, members, range(n + k, n + k + m))


def extract_cover_edges(tnet: TargetFlowNetwork | CirculationNetwork,
                        assignment: FlowAssignment) -> list[tuple[int, int]]:
    """Graph edges whose arc carries unit flow, in edge order, from either
    node-split network.

    Raises:
        ValueError: some node has two selected in-edges or two selected
            out-edges, which no valid assignment can produce.
    """
    flow = assignment.flow
    picked = [i for i in tnet.edge_arcs if flow[i] == 1]
    tails = (tnet.net.tail[picked] - tnet.n).tolist()
    heads = tnet.net.head[picked].tolist()
    edges = list(zip(tails, heads))
    # sets are the cheap test on small covers; the culprit is found only
    # when there is one
    if len(set(tails)) < len(edges) or len(set(heads)) < len(edges):
        bad = _repeats(np.array(tails)) | _repeats(np.array(heads))
        t, h = edges[bad.argmax()]
        raise ValueError(f"flow selects conflicting edges at ({t}, {h})")
    return edges


def decompose_cover(cover_edges, targets) -> PathCover:
    """Split a degree-at-most-one edge set into the covering paths and
    cycles.

    Targets touching no edge become singleton paths.  Maximal chains are
    peeled from in-degree-zero nodes in ascending id order; what remains is
    a disjoint union of simple cycles, each reported starting from its
    smallest node.

    Raises:
        ValueError: ``cover_edges`` has a node with in-degree or
            out-degree above one.
    """
    nxt: dict[int, int] = {}
    prv: dict[int, int] = {}
    for t, h in cover_edges:
        if t in nxt:
            raise ValueError(f"node {t} has two outgoing cover edges")
        if h in prv:
            raise ValueError(f"node {h} has two incoming cover edges")
        nxt[t] = h
        prv[h] = t

    touched = set(nxt) | set(prv)
    paths = [(v,) for v in sorted(set(targets)) if v not in touched]

    for head in sorted(u for u in nxt if u not in prv):
        chain = [head]
        while chain[-1] in nxt:
            chain.append(nxt.pop(chain[-1]))
        paths.append(tuple(chain))

    cycles = []
    while nxt:
        start = min(nxt)
        cyc = [start]
        node = nxt.pop(start)
        while node != start:
            cyc.append(node)
            node = nxt.pop(node)
        cycles.append(tuple(cyc))
    return PathCover(tuple(paths), tuple(cycles))


def solve(g: DiGraph, targets) -> Solution:
    """Minimum target path cover of ``targets``: the fewest control sources
    when each drives one path from its head (an upper bound on the inputs
    the rank test needs), with the covering paths and cycles.

    Builds the node-split network, pushes a maximum flow through it,
    and decomposes the unit-flow edges.  The number of paths always equals
    ``|targets| - flow value``.
    """
    tnet = build_target_network(g, targets)
    members = tnet.targets
    assignment = max_flow_dinic(tnet.net)
    cover = decompose_cover(extract_cover_edges(tnet, assignment), members)
    if len(cover.paths) != len(members) - assignment.value:
        raise AssertionError(
            f"path count {len(cover.paths)} inconsistent with flow "
            f"{assignment.value} over {len(members)} targets")
    return Solution(cover, max(len(cover.paths), 1), assignment.value)


def build_circulation_network(g: DiGraph, targets) -> CirculationNetwork:
    """Full bounded network: unit arcs from the source into every in-copy
    and from every out-copy into the sink, pass-through arcs with lower
    bound one exactly on targets, one arc per graph edge, and an unbounded
    return arc from sink to source."""
    members = _checked_targets(g, targets)
    n, m = g.n, g.tail.size
    nodes = np.arange(n)
    src, snk = 2 * n, 2 * n + 1
    tail = np.concatenate((np.full(n, src), nodes + n, nodes, g.tail + n,
                           [snk]))
    head = np.concatenate((nodes, np.full(n, snk), nodes + n, g.head, [src]))
    lower = np.zeros(tail.size, dtype=np.int64)
    lower[2 * n + np.array(members)] = 1
    net = BoundedFlowNetwork.from_columns(
        2 * n + 2, src, snk, tail, head, lower,
        np.ones(tail.size, dtype=np.int64),
        ((TAG_SOURCE, n), (TAG_SINK, n), (TAG_SPLIT, n), (TAG_EDGE, m),
         (TAG_RETURN, 1)), [tail.size - 1])
    return CirculationNetwork(net, n, members, range(3 * n, 3 * n + m),
                              3 * n + m)


def solve_via_circulation(g: DiGraph, targets) -> Solution:
    """Same answer as :func:`solve` through the minimum-flow route.

    The bounded network's minimum source-to-sink flow equals the minimum
    path count directly; the cover falls out of the same unit-flow edge
    decomposition.  Paths found this way may carry non-target prefixes the
    direct route trims, but their number, and hence the driver count, must
    match.
    """
    cnet = build_circulation_network(g, targets)
    members = cnet.targets
    assignment = min_flow_with_bounds(cnet.net)
    cover = decompose_cover(extract_cover_edges(cnet, assignment), members)
    if len(cover.paths) != assignment.value:
        raise AssertionError(
            f"path count {len(cover.paths)} differs from minimum flow "
            f"{assignment.value}")
    return Solution(cover, max(len(cover.paths), 1),
                    len(members) - len(cover.paths))


def allocate_drivers(cover: PathCover) -> DriverAllocation:
    """Attach control sources: one dedicated driver per path head, and one
    node per cycle (its smallest) wired to driver 0.  Drivers number
    ``max(|paths|, 1)`` so a purely cyclic cover still gets its one
    source."""
    attachments = [(k, path[0]) for k, path in enumerate(cover.paths)]
    attachments.extend((0, min(cyc)) for cyc in cover.cycles)
    return DriverAllocation(max(len(cover.paths), 1), tuple(attachments))


def verify_cover(g: DiGraph, targets, cover: PathCover) -> bool:
    """True iff ``cover`` is a vertex-disjoint set of simple paths and
    cycles of ``g`` whose union covers every target."""
    edge_set = set(g.edges)
    seen: set[int] = set()
    walks = ([(p, p[1:]) for p in cover.paths]
             + [(c, c[1:] + c[:1]) for c in cover.cycles])
    for nodes, successors in walks:
        if len(nodes) == 0:
            return False
        for v in nodes:
            if not (0 <= v < g.n) or v in seen:
                return False
            seen.add(v)
        for a, b in zip(nodes, successors):
            if (a, b) not in edge_set:
                return False
    try:
        members = _checked_targets(g, targets)
    except ValueError:
        return False
    return all(v in seen for v in members)
