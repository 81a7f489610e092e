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

from dataclasses import dataclass

import numpy as np

from .flow import (FlowAssignment, _distinct, max_flow_dinic,
                   min_flow_with_bounds)
from .graph import DiGraph, _ids, _repeats
from .network import BoundedFlowNetwork

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
    ``2n``).  With ``k`` targets and ``m`` edges, the arc index ranges
    are: inject arcs from the injector to each target's out-copy in
    ``[0, k)``, collect arcs from each target's in-copy to the collector in
    ``[k, 2k)``, relay arcs through each non-target in ``[2k, n + k)``,
    and one edge arc per graph edge, from tail out-copy to head in-copy,
    in ``[n + k, n + k + m)``; each class ascends by node or edge.
    ``edge_arcs[i]`` is the arc index carrying graph edge ``i``.

    Over ``T`` target sets, set ``c`` is laid out as above on nodes
    ``[2nc, 2n(c + 1))``, after the arcs of set ``c - 1``, sharing the
    collector ``2nT`` and injector ``2nT + 1``; ``targets`` and
    ``edge_arcs`` are set 0's.  The bounds are constant views of 0 and 1.
    """

    net: BoundedFlowNetwork
    n: int
    targets: tuple[int, ...]
    edge_arcs: range


@dataclass(frozen=True)
class CirculationNetwork:
    """Node-split network whose minimum source-to-sink flow is the minimum
    path count.  Over the nodes of :class:`TargetFlowNetwork`, with source
    ``2n`` and sink ``2n + 1``, the arc index ranges are: unit source arcs
    into each in-copy ``[0, n)``, unit sink arcs out of each out-copy
    ``[n, 2n)``, split arcs from in- to out-copy ``[2n, 3n)``, of lower
    bound one exactly on targets, edge arcs ``[3n, 3n + m)``, and last the
    unbounded return arc, ``3n + m``."""

    net: BoundedFlowNetwork
    n: int
    targets: tuple[int, ...]
    edge_arcs: range
    return_arc: int


def _checked_targets(g: DiGraph, targets) -> tuple[int, ...]:
    if not (ids := _ids(targets, below=g.n, name="target")).size:
        raise ValueError("empty target set")
    return tuple(_distinct(ids).tolist())


def build_target_network(g: DiGraph, targets, *more) -> TargetFlowNetwork:
    """Split every node into in/out copies and wire the unit-capacity flow
    problem, laid out as :class:`TargetFlowNetwork` states, whose value is
    ``|targets| - (minimum path count)``, summed over ``more`` sets."""
    sets = [_checked_targets(g, members) for members in (targets, *more)]
    n, m = g.n, g.tail.size
    collector, injector = 2 * n * len(sets), 2 * n * len(sets) + 1
    tails, heads = [], []
    for base, members in zip(range(0, collector, 2 * n), sets):
        k = len(members)
        chosen = np.array(members, dtype=np.int64)
        relay = np.delete(np.arange(n), chosen) + base
        chosen += base
        tails += (np.full(k, injector), chosen, relay, g.tail + (n + base))
        heads += (chosen + n, np.full(k, collector), relay + n, g.head + base)
    tail, head = np.concatenate(tails + heads).reshape(2, -1)
    net = BoundedFlowNetwork.from_columns(
        collector + 2, injector, collector, tail, head,
        np.broadcast_to(np.int64(0), tail.shape),
        np.broadcast_to(np.int64(1), tail.shape))
    k = len(sets[0])
    return TargetFlowNetwork(net, n, sets[0], range(n + k, n + k + m))


def extract_cover_edges(tnet: TargetFlowNetwork | CirculationNetwork,
                        assignment: FlowAssignment) -> np.ndarray:
    """Graph edges whose arc carries unit flow, from either node-split
    network: the ``(tail, head)`` rows of one int64 array, in edge order.

    Raises:
        ValueError: some node has two selected in-edges or two selected
            out-edges, which no valid assignment can produce.
    """
    arcs = tnet.edge_arcs
    picked = arcs.start + np.flatnonzero(
        np.asarray(assignment.flow)[arcs.start:arcs.stop] == 1)
    tails, heads = tnet.net.tail[picked] - tnet.n, tnet.net.head[picked]
    if (bad := _repeats(tails) | _repeats(heads)).any():
        i = bad.argmax()
        raise ValueError(
            f"flow selects conflicting edges at ({tails[i]}, {heads[i]})")
    return np.column_stack((tails, heads))


def decompose_cover(cover_edges, targets) -> PathCover:
    """Split a degree-at-most-one edge set, given as (tail, head) pairs or
    the rows of an integer array, into the covering paths and cycles.

    Targets touching no edge become singleton paths.  Maximal chains are
    peeled from in-degree-zero nodes in ascending id order; what remains is
    a disjoint union of simple cycles, peeled in one ascending pass, each
    reported starting from its smallest node.

    Raises:
        ValueError: ``cover_edges`` has a node with in-degree or
            out-degree above one, or an edge or target id is no int64.
    """
    tails, heads = _ids(cover_edges, 2).T
    for ends, way in ((tails, "outgoing"), (heads, "incoming")):
        if (bad := _repeats(ends)).any():
            raise ValueError(
                f"node {ends[bad.argmax()]} has two {way} cover edges")
    touched = np.sort(np.concatenate((tails, heads)))
    members = _distinct(_ids(targets))
    lone = members[touched.searchsorted(members)
                   == touched.searchsorted(members, "right")].tolist()
    tails, heads = tails.tolist(), heads.tolist()
    nxt = dict(zip(tails, heads))

    def peel(starts, walks):  # to the end of a chain, or round a cycle
        for start in starts:
            if start in nxt:  # not on an earlier walk
                walk = [node := start]
                while (node := nxt.pop(node, start)) != start:
                    walk.append(node)
                walks.append(tuple(walk))
        return tuple(walks)

    paths = peel(sorted(nxt.keys() - heads), [(v,) for v in lone])
    return PathCover(paths, peel(sorted(nxt), []))  # only cycles are left


def _read_cover(tnet, assignment: FlowAssignment, links: int) -> Solution:
    """Solution of the unit-flow edges: one path per target less ``links``."""
    members = tnet.targets
    cover = decompose_cover(extract_cover_edges(tnet, assignment), members)
    if len(cover.paths) != len(members) - links:
        raise AssertionError(f"path count {len(cover.paths)} inconsistent "
                             f"with {links} links over {len(members)} targets")
    return Solution(cover, max(len(cover.paths), 1), links)


def solve(g: DiGraph, targets) -> Solution:
    """Minimum target path cover of ``targets``: the fewest control sources
    when each drives one path from its head (an upper bound on the inputs
    the rank test needs), with the covering paths and cycles.

    Builds the node-split network, pushes a maximum flow through it and
    decomposes the unit-flow edges into ``|targets| - flow value`` paths.
    """
    tnet = build_target_network(g, targets)
    assignment = max_flow_dinic(tnet.net)
    return _read_cover(tnet, assignment, assignment.value)


def build_circulation_network(g: DiGraph, targets) -> CirculationNetwork:
    """Full bounded network, laid out as :class:`CirculationNetwork`
    states."""
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
        np.ones(tail.size, dtype=np.int64), [tail.size - 1])
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
    assignment = min_flow_with_bounds(cnet.net)
    return _read_cover(cnet, assignment, len(cnet.targets) - assignment.value)


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
    walks = (*cover.paths, *cover.cycles)
    nodes = [v for walk in walks for v in walk]
    steps = [s for p in cover.paths for s in zip(p, p[1:])] + [
        s for c in cover.cycles for s in zip(c, c[1:] + c[:1])]
    try:
        members = _checked_targets(g, targets)
        _ids(nodes, below=g.n)
    except ValueError:
        return False
    return (all(walks) and len(set(nodes)) == len(nodes)
            and set(g.edges).issuperset(steps)
            and set(nodes).issuperset(members))
