"""Minimum driver allocation for a target node set, via maximum flow.

The question answered here: how many independent external control sources
are needed so that a chosen subset of nodes in a directed network can be
steered, and where should they attach?  The answer is the minimum number of
directed paths in a vertex-disjoint union of simple paths and cycles that
covers the target set (cycles are free: one source can reach into any
number of them), floored at one.

Two equivalent routes are provided:

* :func:`solve` converts the instance into a unit-capacity flow network by
  node splitting and reads the cover off a maximum flow; the minimum path
  count is ``|targets| - maxflow``.
* :func:`solve_via_circulation` keeps the intermediate network with unit
  lower bounds on target nodes and minimizes the source-to-sink flow
  directly.  It must agree with :func:`solve` and exists as a cross-check.
"""

from dataclasses import dataclass

from .flow import (INF, Arc, BoundedFlowNetwork, FlowAssignment,
                   max_flow_dinic, min_flow_with_bounds)
from .graph import DiGraph

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
    edge_arcs: tuple[int, ...]


@dataclass(frozen=True)
class CirculationNetwork:
    """Node-split network with unit lower bounds on target pass-through
    arcs, a unit source/sink arc per node and an unbounded return arc;
    its minimum source-to-sink flow is the minimum path count."""

    net: BoundedFlowNetwork
    n: int
    targets: tuple[int, ...]
    edge_arcs: tuple[int, ...]
    return_arc: int


def _checked_targets(g: DiGraph, targets) -> tuple[int, ...]:
    members = sorted(set(int(v) for v in targets))
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
    tset = set(members)
    n = g.n
    collector, injector = 2 * n, 2 * n + 1
    arcs = []
    for v in members:
        arcs.append(Arc(injector, n + v, 0, 1, TAG_INJECT))
    for v in members:
        arcs.append(Arc(v, collector, 0, 1, TAG_COLLECT))
    for v in range(n):
        if v not in tset:
            arcs.append(Arc(v, n + v, 0, 1, TAG_RELAY))
    edge_start = len(arcs)
    for t, h in g.edges:
        arcs.append(Arc(n + t, h, 0, 1, TAG_EDGE))
    net = BoundedFlowNetwork(2 * n + 2, tuple(arcs), injector, collector)
    return TargetFlowNetwork(net, n, members,
                             tuple(range(edge_start, len(arcs))))


def extract_cover_edges(tnet: TargetFlowNetwork | CirculationNetwork,
                        assignment: FlowAssignment) -> list[tuple[int, int]]:
    """Graph edges whose arc carries unit flow, in edge order, from either
    node-split network.

    Raises:
        ValueError: some node has two selected in-edges or two selected
            out-edges, which no valid assignment can produce.
    """
    heads_seen = set()
    tails_seen = set()
    selected = []
    for arc_idx in tnet.edge_arcs:
        if assignment.flow[arc_idx] == 1:
            a = tnet.net.arcs[arc_idx]
            t, h = a.tail - tnet.n, a.head
            if t in tails_seen or h in heads_seen:
                raise ValueError(f"flow selects conflicting edges at ({t}, {h})")
            tails_seen.add(t)
            heads_seen.add(h)
            selected.append((t, h))
    return selected


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
    """Minimum number of control sources covering ``targets``, with the
    covering paths and cycles.

    Builds the node-split network, pushes a maximum flow through it,
    and decomposes the unit-flow edges.  The number of paths always equals
    ``|targets| - flow value``.
    """
    members = _checked_targets(g, targets)
    tnet = build_target_network(g, members)
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
    tset = set(members)
    n = g.n
    src, snk = 2 * n, 2 * n + 1
    arcs = []
    for v in range(n):
        arcs.append(Arc(src, v, 0, 1, TAG_SOURCE))
    for v in range(n):
        arcs.append(Arc(n + v, snk, 0, 1, TAG_SINK))
    for v in range(n):
        arcs.append(Arc(v, n + v, 1 if v in tset else 0, 1, TAG_SPLIT))
    edge_start = len(arcs)
    for t, h in g.edges:
        arcs.append(Arc(n + t, h, 0, 1, TAG_EDGE))
    return_arc = len(arcs)
    arcs.append(Arc(snk, src, 0, INF, TAG_RETURN))
    net = BoundedFlowNetwork(2 * n + 2, tuple(arcs), src, snk)
    return CirculationNetwork(net, n, members,
                              tuple(range(edge_start, return_arc)), return_arc)


def solve_via_circulation(g: DiGraph, targets) -> Solution:
    """Same answer as :func:`solve` through the minimum-flow route.

    The bounded network's minimum source-to-sink flow equals the minimum
    path count directly; the cover falls out of the same unit-flow edge
    decomposition.  Paths found this way may carry non-target prefixes the
    direct route trims, but their number, and hence the driver count, must
    match.
    """
    members = _checked_targets(g, targets)
    cnet = build_circulation_network(g, members)
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
