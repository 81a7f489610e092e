"""Capacity-network engine: Dinic maximum flow plus lower-bound machinery.

The solvers run on the int64 arc columns of a
:class:`~targetflow.network.BoundedFlowNetwork`, which hold the sentinel
standing in for ``INF``; residual capacities are int64 too.

One residual engine runs every solver: maximum flow, the saturation of the
associate graph behind feasible circulations, and the cancellation step of
the minimum flow, which starts it from the circulation's residual.

Determinism: arcs are traversed in ascending insertion order everywhere
(BFS level construction and blocking-flow DFS), so a given network always
yields the same flow assignment, not merely the same value.
"""

from array import array
from operator import add
from typing import NamedTuple, Optional

import numpy as np

from .network import BoundedFlowNetwork, _column, _first_fraction


class InfeasibleFlowError(RuntimeError):
    """No flow satisfies the lower/upper bounds of the network."""


class FlowAssignment(NamedTuple):
    """Per-arc integer flows (aligned with the network's arc list) and the
    net source-to-sink value."""

    flow: tuple[int, ...]
    value: int


def _node_sums(n: int, nodes, values):
    """Exact sum of the non-negative ``values`` at each of ``n`` nodes, in
    Python integers where int64 could overflow."""
    if (values.dtype != object and values.size
            and values.max() > np.iinfo(np.int64).max // values.size):
        values = values.astype(object)
    sums = np.zeros(n, dtype=values.dtype)
    np.add.at(sums, nodes, values)
    return sums


def _distinct(nodes):
    """Sorted distinct entries of an integer array.  ``np.unique`` would
    do, but it imports ``numpy.ma`` (about 1.7 MB resident with numpy 2.4),
    which a small solve would pay for in peak memory."""
    nodes = np.sort(nodes)
    keep = np.empty(nodes.size, dtype=bool)
    keep[:1] = True
    np.not_equal(nodes[1:], nodes[:-1], out=keep[1:])
    return nodes[keep]


class _ResidualDinic:
    """Dinic maximum flow on an int64 residual network.

    Arc ``i`` owns slot ``2i`` (forward) and slot ``2i ^ 1`` (reverse).  The
    slots leaving each node form a CSR in ascending slot order, so every
    tie-break resolves toward the lowest arc index.  Residual capacities
    live in an ``array("q")`` that numpy views without copying: level
    sweeps run as vectorized gathers, the blocking-flow DFS walks flat
    Python sequences.  ``fwd``/``rev`` give each arc's initial residual
    capacity both ways, which lets a search start from a nonzero flow.

    Each phase sweeps breadth-first from the source, keeping each layer's
    positive slots into the next layer; a pass back over those layers from
    the sink keeps a slot iff its head reaches the sink.  The DFS so scans
    only slots on shortest source-to-sink paths.  The others lead to nodes
    that cannot reach the sink in the phase, which a DFS would enter and
    leave without touching a residual: the augmenting paths are the same.
    """

    def __init__(self, n: int, tail, head, fwd, rev=0):
        self.n = n
        m = len(tail)
        heads = np.empty(2 * m, dtype=np.int64)
        heads[0::2] = head
        heads[1::2] = tail
        self._head_np = heads  # the tail of slot q is the head of q ^ 1
        tails = heads.reshape(-1, 2)[:, ::-1].ravel()
        self._adj_np = np.argsort(tails, kind="stable")
        self._deg = np.bincount(tails, minlength=n)
        self._indptr_np = np.concatenate(([0], self._deg.cumsum()))
        self.cap = array("q", [0]) * (2 * m)
        self._cap_np = np.frombuffer(self.cap, dtype=np.int64)
        self._cap_np[0::2] = fwd
        self._cap_np[1::2] = rev
        self._fwd = self._cap_np[0::2].copy()

    def pushed(self) -> list[int]:
        """Net flow each arc gained, in arc order."""
        return (self._fwd - self._cap_np[0::2]).tolist()

    def _gather(self, frontier):
        """Slots leaving the ``frontier`` nodes, node by node."""
        starts = self._indptr_np[frontier]
        counts = self._deg[frontier]
        ends = counts.cumsum()
        return self._adj_np[np.arange(ends[-1])
                            + (starts - ends + counts).repeat(counts)]

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while (csr := self._phase_csr(s, t)) is not None:
            total += self._blocking_flow(*csr)
        return total

    def _phase_csr(self, s: int, t: int):
        """The phase's slots as ``(flat, nxt, indptr)``, or ``None`` when
        the sink is out of reach: a CSR over the phase's own node ids, each
        node's slots in slot order, ``nxt`` each slot's head by that id.
        The source is the last of these nodes, the sink the one after."""
        unseen = np.ones(self.n, dtype=bool)
        unseen[s] = False
        frontier = np.array([s], dtype=np.int64)
        layers = []
        while frontier.size and unseen[t]:
            pos = self._gather(frontier)
            pos = pos[self._cap_np[pos] > 0]
            nxt = self._head_np[pos]
            fresh = unseen[nxt]
            layers.append(pos[fresh])
            frontier = _distinct(nxt[fresh])
            unseen[frontier] = False
        if unseen[t]:
            return None
        alive = np.zeros(self.n, dtype=bool)
        alive[t] = True
        kept = []
        while layers:
            pos = layers.pop()
            pos = pos[alive[self._head_np[pos]]]
            alive[self._head_np[pos ^ 1]] = True
            kept.append(pos)
        flat = np.concatenate(kept)
        tails = self._head_np[flat ^ 1]
        indptr = np.flatnonzero(np.diff(tails, prepend=-1, append=-1))
        local = np.empty(self.n, dtype=np.int64)
        local[tails[indptr[:-1]]] = np.arange(indptr.size - 1)
        local[t] = indptr.size - 1
        return (flat.tolist(), local[self._head_np[flat]].tolist(),
                indptr.tolist())

    def _blocking_flow(self, flat, nxt, indptr) -> int:
        """Augment along the phase CSR until no path is left.  A node
        whose slots are used up keeps its cursor at their end, so a later
        visit backs out of it at once."""
        cap = self.cap
        t = len(indptr) - 1
        u = s = t - 1
        it = indptr[:-1]
        path: list[int] = []  # positions in ``flat``
        total = 0
        while True:
            if u == t:
                caps = [cap[flat[k]] for k in path]
                aug = min(caps)
                for k in path:
                    cap[flat[k]] -= aug
                    cap[flat[k] ^ 1] += aug
                total += aug
                # resume from the tail of the first saturated slot
                del path[caps.index(aug):]
                u = nxt[path[-1]] if path else s
                continue
            k = it[u]
            end = indptr[u + 1]
            while k < end and not cap[flat[k]]:
                k += 1
            it[u] = k
            if k < end:
                path.append(k)
                u = nxt[k]
            else:
                if u == s:
                    break
                path.pop()
                u = nxt[path[-1]] if path else s
                it[u] += 1
        return total


def max_flow_dinic(net: BoundedFlowNetwork) -> FlowAssignment:
    """Maximum integer flow on a network whose lower bounds are all zero.

    Repeated breadth-first level graphs with blocking flows on the residual
    network.  Returns the per-arc flows and the flow value.

    Raises:
        ValueError: a lower bound is nonzero, or a path of unbounded arcs
            joins source to sink, so that the flow reaches the sentinel.
    """
    if np.count_nonzero(net.lower):
        raise ValueError("max_flow_dinic requires all lower bounds zero")
    engine = _ResidualDinic(net.node_count, net.tail, net.head, net.cap)
    value = engine.max_flow(net.source, net.sink)
    if net.unbounded.size and value >= net.cap[net.unbounded[0]]:
        raise ValueError("a path of unbounded arcs joins source to sink")
    return FlowAssignment(tuple(engine.pushed()), value)


def build_associate_graph(net: BoundedFlowNetwork):
    """Lower-bound elimination transform.

    Adds a fresh source/sink pair; every original arc keeps its endpoints
    and tag with capacity ``cap - lower``, and each node gains an arc from
    the new source with capacity equal to the sum of lower bounds entering
    it, plus an arc to the new sink with capacity equal to the sum of lower
    bounds leaving it.  Returns ``(plain_network, arc_map)`` where
    ``arc_map[i]`` is the index of the image of original arc ``i``.
    """
    n, m = net.node_count, net.tail.size
    nodes = np.arange(n)
    tail = np.concatenate((net.tail, np.full(n, n), nodes))
    head = np.concatenate((net.head, nodes, np.full(n, n + 1)))
    cap = np.concatenate((net.cap - net.lower,
                          _node_sums(n, net.head, net.lower),
                          _node_sums(n, net.tail, net.lower)))
    plain = BoundedFlowNetwork.from_columns(
        n + 2, n, n + 1, tail, head, np.zeros(tail.size, dtype=np.int64),
        cap, net._tags, net.unbounded)
    return plain, range(m)


def feasible_circulation(net: BoundedFlowNetwork) -> Optional[FlowAssignment]:
    """Circulation satisfying every arc's bounds, or ``None`` if none exists.

    Saturates the associate graph: a circulation exists exactly when its
    maximum flow equals the sum of all lower bounds, in which case the
    circulation is ``image flow + lower`` per arc.  The reported value is
    the flow returning from the network's sink to its source.
    """
    plain, _ = build_associate_graph(net)  # the images are its first arcs
    assignment = max_flow_dinic(plain)
    lower = net.lower.tolist()
    if assignment.value != sum(lower):
        return None
    flow = tuple(map(add, assignment.flow, lower))
    back = (net.tail == net.sink) & (net.head == net.source)
    return FlowAssignment(flow, sum(flow[i] for i in np.flatnonzero(back)))


def min_flow_with_bounds(net: BoundedFlowNetwork) -> FlowAssignment:
    """Feasible flow of minimum source-to-sink value.

    First finds a feasible circulation (adding a temporary unbounded return
    arc sink -> source unless the network already carries one), then cancels
    as much of it as possible by maximizing residual flow from sink back to
    source.  The result's value is the circulation value minus the canceled
    amount, which is minimal among all feasible flows.
    """
    n, s, t, m = net.node_count, net.source, net.sink, net.tail.size
    u = net.unbounded
    back = u[(net.tail[u] == t) & (net.head[u] == s) & (net.lower[u] == 0)]
    if back.size:
        work, return_pos = net, int(back.min())
    else:
        work = BoundedFlowNetwork.from_columns(
            n, s, t, np.append(net.tail, t), np.append(net.head, s),
            np.append(net.lower, 0), np.append(net.cap, 0), net._tags,
            np.append(u, m))
        return_pos = m

    circ = feasible_circulation(work)
    if circ is None:
        raise InfeasibleFlowError("no feasible flow")
    value0 = circ.flow[return_pos]

    # Residual cancellation: push sink -> source from the circulation,
    # with the return arc closed both ways.
    flow = _column(circ.flow)
    fwd = work.cap - flow
    rev = flow - work.lower
    fwd[return_pos] = rev[return_pos] = 0
    engine = _ResidualDinic(n, work.tail, work.head, fwd, rev)
    canceled = engine.max_flow(t, s)
    final = [f + d for f, d in zip(circ.flow, engine.pushed())]
    final[return_pos] = value0 - canceled
    return FlowAssignment(tuple(final[:m]), value0 - canceled)


def validate_assignment(net: BoundedFlowNetwork,
                        assignment: FlowAssignment) -> None:
    """Raise ``ValueError`` unless bounds hold on every arc and every node
    other than source/sink conserves flow exactly."""
    if len(assignment.flow) != net.tail.size:
        raise ValueError("flow vector length mismatch")
    flow = _column(assignment.flow)
    if _first_fraction(flow) is not None:
        raise ValueError("non-integer flow")
    above = flow > net.cap
    above[net.unbounded] = False  # the sentinel bounds no flow
    bad = (flow < net.lower) | above
    if bad.any():
        i = bad.argmax()
        raise ValueError(f"flow {flow[i]} violates bounds on {net.arcs[i]}")
    balance = (_node_sums(net.node_count, net.head, flow)
               - _node_sums(net.node_count, net.tail, flow))
    ends = balance[[net.source, net.sink]].tolist()
    balance[[net.source, net.sink]] = 0
    if balance.any():
        v = (balance != 0).argmax()
        raise ValueError(f"conservation violated at node {v}")
    if ends[0] != -ends[1]:
        raise ValueError("source and sink imbalance differ")


def verify_optimality(net: BoundedFlowNetwork,
                      assignment: FlowAssignment) -> None:
    """Raise ``ValueError`` unless ``assignment`` is a valid flow whose
    value equals the capacity of a cut, which makes it maximum.

    The cut's source side is what a breadth-first search reaches from the
    source in the residual network of ``assignment``: the sink must lie
    outside it, each arc out of it must be saturated and each arc into it
    must carry its lower bound.  An unbounded arc never saturates, so none
    leaves the cut.  The residual network is rebuilt from ``assignment``
    alone, and the search shares the engine's CSR but none of its phase
    code."""
    validate_assignment(net, assignment)
    flow, cap = _column(assignment.flow), net.cap
    fwd = flow < cap
    fwd[net.unbounded] = True
    res = _ResidualDinic(net.node_count, net.tail, net.head, fwd,
                         flow > net.lower)
    side = np.zeros(net.node_count, dtype=bool)
    frontier = np.array([net.source])
    while frontier.size:
        side[frontier] = True
        pos = res._gather(frontier)
        nxt = res._head_np[pos[res._cap_np[pos] > 0]]
        frontier = _distinct(nxt[~side[nxt]])
    if side[net.sink]:
        raise ValueError("an augmenting path is left")
    out, into = side[net.tail], side[net.head]
    leaving, entering = out & ~into, into & ~out
    bad = leaving & (flow != cap) | entering & (flow != net.lower)
    if bad.any():
        i = bad.argmax()
        raise ValueError(f"{net.arcs[i]} crosses the cut with flow {flow[i]}")
    cut = sum(flow[leaving].tolist()) - sum(flow[entering].tolist())
    if cut != assignment.value:
        raise ValueError(f"cut capacity {cut} differs from the flow value "
                         f"{assignment.value}")
