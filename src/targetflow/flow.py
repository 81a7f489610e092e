"""Capacity-network engine: Dinic maximum flow plus lower-bound machinery.

Networks carry integer lower/upper bounds per arc.  Unbounded capacity is
expressed with the ``INF`` marker; solvers substitute an integer sentinel
larger than any achievable flow so that all arithmetic stays integral.
Residual capacities are int64, so a finite capacity or sentinel beyond
that range raises ``ValueError``.

One residual engine runs every solver: maximum flow, the saturation of the
associate graph behind feasible circulations, and the cancellation step of
the minimum flow, which starts it from the circulation's residual.

Determinism: arcs are traversed in ascending insertion order everywhere
(BFS level construction and blocking-flow DFS), so a given network always
yields the same flow assignment, not merely the same value.
"""

import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

INF = math.inf

# The one-time pruning sweeps are worth their numpy overhead only on bulk
# networks; smaller ones skip them.  Pruning never changes the assignment.
_PRUNE_MIN_ARCS = 2000


class InfeasibleFlowError(RuntimeError):
    """No flow satisfies the lower/upper bounds of the network."""


class Arc(NamedTuple):
    tail: int
    head: int
    lower: int = 0
    cap: int | float = 1
    tag: str | None = None


class FlowAssignment(NamedTuple):
    """Per-arc integer flows (aligned with the network's arc list) and the
    net source-to-sink value."""

    flow: tuple[int, ...]
    value: int


@dataclass(frozen=True)
class BoundedFlowNetwork:
    """Directed capacity network with per-arc bounds ``lower <= cap``.

    ``source`` and ``sink`` are the endpoints of the flow problem the network
    poses.  Apart from an explicit return arc (sink -> source), the source
    must have no incoming arcs and the sink no outgoing arcs.  Parallel arcs
    and self-loop arcs are permitted.
    """

    node_count: int
    arcs: tuple[Arc, ...]
    source: int
    sink: int

    def __post_init__(self):
        object.__setattr__(self, "arcs", tuple(self.arcs))
        n = self.node_count
        if not (0 <= self.source < n and 0 <= self.sink < n):
            raise ValueError("source/sink out of range")
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        for a in self.arcs:
            if not (0 <= a.tail < n and 0 <= a.head < n):
                raise ValueError(f"arc endpoint out of range: {a}")
            if a.lower < 0 or int(a.lower) != a.lower:
                raise ValueError(f"lower bound must be a non-negative integer: {a}")
            if a.cap != INF:
                if int(a.cap) != a.cap:
                    raise ValueError(f"finite capacity must be an integer: {a}")
                if a.lower > a.cap:
                    raise ValueError(f"lower bound exceeds capacity: {a}")
            if a.head == self.source and a.tail != self.sink and a.cap > 0:
                raise ValueError("source admits no incoming arc besides a return arc")
            if a.tail == self.sink and a.head != self.source and a.cap > 0:
                raise ValueError("sink admits no outgoing arc besides a return arc")


def _columns(arcs):
    """Tail, head, lower and integer capacity columns of ``arcs``, with
    ``INF`` mapped to an integer larger than any flow the finite bounds can
    carry."""
    if not arcs:
        return (), (), (), []
    tail, head, lower, cap, _ = zip(*arcs)
    big = (1 + sum(int(c) for c in cap if c != INF) + sum(map(int, lower))
           if INF in cap else None)
    return tail, head, lower, [big if c == INF else int(c) for c in cap]


def _distinct(nodes):
    """Sorted distinct entries of an integer array.  ``np.unique`` would
    do, but it imports ``numpy.ma`` (about 1.7 MB resident with numpy 2.4),
    which a small solve would pay for in peak memory."""
    nodes = np.sort(nodes)
    keep = np.ones(nodes.size, dtype=bool)
    keep[1:] = nodes[1:] != nodes[:-1]
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
    """

    def __init__(self, n: int, tail, head, fwd, rev=None):
        self.n = n
        m = len(tail)
        heads = np.empty(2 * m, dtype=np.int64)
        heads[0::2] = head
        heads[1::2] = tail
        self._head_np = heads
        self._tail_np = heads[np.arange(2 * m) ^ 1]
        self._adj_np = np.argsort(self._tail_np, kind="stable")
        self._indptr_np = np.concatenate(
            ([0], np.cumsum(np.bincount(self._tail_np, minlength=n))))
        self.head = heads.tolist()
        self.cap = array("q", bytes(16 * m))
        self._cap_np = np.frombuffer(self.cap, dtype=np.int64)
        try:
            self._cap_np[0::2] = fwd
            if rev is not None:
                self._cap_np[1::2] = rev
        except OverflowError:
            raise ValueError("capacity or INF sentinel outside the int64 "
                             "range") from None
        self._fwd = self._cap_np[0::2].copy()

    def pushed(self) -> list[int]:
        """Net flow each arc gained, in arc order."""
        return (self._fwd - self._cap_np[0::2]).tolist()

    def _gather(self, frontier):
        """Slots leaving the ``frontier`` nodes, node by node."""
        starts = self._indptr_np[frontier]
        counts = self._indptr_np[frontier + 1] - starts
        ends = np.cumsum(counts)
        return self._adj_np[np.arange(ends[-1])
                            + np.repeat(starts - ends + counts, counts)]

    def _prune(self, s: int, t: int) -> None:
        """Drop slots through nodes that no source-to-sink path can use.
        Sound once and for all: flow moves only along such paths, so the
        nodes reachable from the source, and those reaching the sink, never
        gain members."""
        alive = (self._levels(s) >= 0) & (self._levels(t, flip=1) >= 0)
        adj = self._adj_np
        keep = alive[self._head_np[adj]] & alive[self._tail_np[adj]]
        pref = np.concatenate(([0], np.cumsum(keep)))
        self._indptr_np = pref[self._indptr_np]
        self._adj_np = adj[keep]

    def _levels(self, root: int, stop: int = -1, flip: int = 0):
        """Breadth-first layer of every node reachable from ``root`` along
        slots of positive residual capacity, -1 elsewhere.  ``flip=1``
        follows the slots from head to tail; the sweep ends with the layer
        that reaches ``stop``, if given."""
        level = np.full(self.n, -1, dtype=np.int64)
        level[root] = 0
        frontier = np.array([root], dtype=np.int64)
        depth = 0
        while frontier.size and (stop < 0 or level[stop] < 0):
            depth += 1
            pos = self._gather(frontier)
            nxt = self._head_np[pos[self._cap_np[pos ^ flip] > 0]]
            frontier = _distinct(nxt[level[nxt] < 0])
            level[frontier] = depth
        return level

    def max_flow(self, s: int, t: int) -> int:
        if self._fwd.size >= _PRUNE_MIN_ARCS:
            self._prune(s, t)
        total = 0
        while (level := self._levels(s, t))[t] >= 0:
            total += self._blocking_flow(s, t, level)
        return total

    def _admissible_csr(self, level):
        """Restrict the adjacency to level-graph slots (tail reached, head
        one layer deeper, residual capacity left), preserving per-node
        order."""
        adj = self._adj_np
        ltail = level[self._tail_np]
        ok = ((self._cap_np > 0) & (ltail >= 0)
              & (level[self._head_np] == ltail + 1))
        keep = ok[adj]
        pref = np.concatenate(([0], np.cumsum(keep)))
        indptr = pref[self._indptr_np]
        return adj[keep].tolist(), indptr.tolist()

    def _blocking_flow(self, s: int, t: int, level) -> int:
        cap, head = self.cap, self.head
        flat, indptr = self._admissible_csr(level)
        it = indptr[:-1]
        dead = bytearray(self.n)
        path: list[int] = []
        total = 0
        u = s
        while True:
            if u == t:
                aug = min([cap[p] for p in path])
                for p in path:
                    cap[p] -= aug
                    cap[p ^ 1] += aug
                total += aug
                # resume from the tail of the first saturated slot
                del path[next(k for k, p in enumerate(path) if not cap[p]):]
                u = head[path[-1]] if path else s
                continue
            k = it[u]
            end = indptr[u + 1]
            p = -1
            while k < end:
                q = flat[k]
                if cap[q] and not dead[head[q]]:
                    p = q
                    break
                k += 1
            it[u] = k
            if p >= 0:
                path.append(p)
                u = head[p]
            else:
                if u == s:
                    break
                dead[u] = 1
                p = path.pop()
                u = head[p ^ 1]
                it[u] += 1
        return total


def max_flow_dinic(net: BoundedFlowNetwork,
                   source: int | None = None,
                   sink: int | None = None) -> FlowAssignment:
    """Maximum integer flow on a network whose lower bounds are all zero.

    Repeated breadth-first level graphs with blocking flows on the residual
    network.  Returns the per-arc flows and the flow value.

    Raises:
        ValueError: a lower bound is nonzero, or a capacity (or the
            sentinel standing in for ``INF``) does not fit in int64.
    """
    s = net.source if source is None else source
    t = net.sink if sink is None else sink
    if s == t:
        raise ValueError("source equals sink")
    if not (0 <= s < net.node_count and 0 <= t < net.node_count):
        raise ValueError("source/sink out of range")
    tail, head, lower, cap = _columns(net.arcs)
    if any(lower):
        raise ValueError("max_flow_dinic requires all lower bounds zero")
    engine = _ResidualDinic(net.node_count, tail, head, cap)
    value = engine.max_flow(s, t)
    return FlowAssignment(tuple(engine.pushed()), value)


def build_associate_graph(net: BoundedFlowNetwork):
    """Lower-bound elimination transform.

    Adds a fresh source/sink pair; every original arc keeps its endpoints
    with capacity ``cap - lower``, and each node gains an arc from the new
    source with capacity equal to the sum of lower bounds entering it, plus
    an arc to the new sink with capacity equal to the sum of lower bounds
    leaving it.  Returns ``(plain_network, arc_map)`` where ``arc_map[i]``
    is the index of the image of original arc ``i``.
    """
    n = net.node_count
    s_add, t_add = n, n + 1
    in_lower = [0] * n
    out_lower = [0] * n
    arcs: list[Arc] = []
    for a in net.arcs:
        in_lower[a.head] += a.lower
        out_lower[a.tail] += a.lower
        cap = INF if a.cap == INF else a.cap - a.lower
        arcs.append(Arc(a.tail, a.head, 0, cap, a.tag))
    arc_map = tuple(range(len(arcs)))
    for v in range(n):
        arcs.append(Arc(s_add, v, 0, in_lower[v]))
    for v in range(n):
        arcs.append(Arc(v, t_add, 0, out_lower[v]))
    plain = BoundedFlowNetwork(n + 2, tuple(arcs), s_add, t_add)
    return plain, arc_map


def feasible_circulation(net: BoundedFlowNetwork) -> Optional[FlowAssignment]:
    """Circulation satisfying every arc's bounds, or ``None`` if none exists.

    Saturates the associate graph: a circulation exists exactly when its
    maximum flow equals the sum of all lower bounds, in which case the
    circulation is ``image flow + lower`` per arc.  The reported value is
    the flow returning from the network's sink to its source.
    """
    plain, arc_map = build_associate_graph(net)
    assignment = max_flow_dinic(plain)
    lower_sum = sum(a.lower for a in net.arcs)
    if assignment.value != lower_sum:
        return None
    flow = tuple(assignment.flow[arc_map[i]] + a.lower
                 for i, a in enumerate(net.arcs))
    value = sum(f for f, a in zip(flow, net.arcs)
                if a.tail == net.sink and a.head == net.source)
    return FlowAssignment(flow, value)


def min_flow_with_bounds(net: BoundedFlowNetwork,
                         source: int | None = None,
                         sink: int | None = None) -> FlowAssignment:
    """Feasible flow of minimum source-to-sink value.

    First finds a feasible circulation (adding a temporary unbounded return
    arc sink -> source unless the network already carries one), then cancels
    as much of it as possible by maximizing residual flow from sink back to
    source.  The result's value is the circulation value minus the canceled
    amount, which is minimal among all feasible flows.
    """
    s = net.source if source is None else source
    t = net.sink if sink is None else sink

    return_idx = None
    for i, a in enumerate(net.arcs):
        if a.tail == t and a.head == s and a.cap == INF and a.lower == 0:
            return_idx = i
            break

    if return_idx is None:
        work = BoundedFlowNetwork(net.node_count,
                                  net.arcs + (Arc(t, s, 0, INF),), s, t)
        return_pos = len(net.arcs)
    else:
        work = net
        return_pos = return_idx

    circ = feasible_circulation(work)
    if circ is None:
        raise InfeasibleFlowError("no feasible flow")
    value0 = circ.flow[return_pos]

    # Residual cancellation: push sink -> source from the circulation,
    # with the return arc closed both ways.
    tail, head, lower, cap = _columns(work.arcs)
    fwd = [c - f for c, f in zip(cap, circ.flow)]
    rev = [f - lo for f, lo in zip(circ.flow, lower)]
    fwd[return_pos] = rev[return_pos] = 0
    engine = _ResidualDinic(net.node_count, tail, head, fwd, rev)
    canceled = engine.max_flow(t, s)
    final = [f + d for f, d in zip(circ.flow, engine.pushed())]
    final[return_pos] = value0 - canceled
    return FlowAssignment(tuple(final[: len(net.arcs)]), value0 - canceled)


def validate_assignment(net: BoundedFlowNetwork,
                        assignment: FlowAssignment,
                        source: int | None = None,
                        sink: int | None = None) -> None:
    """Raise ``ValueError`` unless bounds hold on every arc and every node
    other than source/sink conserves flow exactly."""
    s = net.source if source is None else source
    t = net.sink if sink is None else sink
    if len(assignment.flow) != len(net.arcs):
        raise ValueError("flow vector length mismatch")
    balance = [0] * net.node_count
    for a, f in zip(net.arcs, assignment.flow):
        if f != int(f):
            raise ValueError("non-integer flow")
        if f < a.lower or (a.cap != INF and f > a.cap):
            raise ValueError(f"flow {f} violates bounds on {a}")
        balance[a.tail] -= f
        balance[a.head] += f
    for v in range(net.node_count):
        if v in (s, t):
            continue
        if balance[v] != 0:
            raise ValueError(f"conservation violated at node {v}")
    if balance[s] != -balance[t]:
        raise ValueError("source and sink imbalance differ")
