"""Capacity-network engine: Dinic maximum flow plus lower-bound machinery.

The solvers run on the int64 arc columns of a
:class:`~targetflow.network.BoundedFlowNetwork`, which hold the sentinel
standing in for ``INF``; residual capacities and returned flows are int64
too.

One residual engine runs every maximum flow, which the minimum cut its last
level sweep found certifies by weak duality (:func:`verify_optimality`)
before it is returned.  Circulations and minimum flows are made of such
flows: a saturated associate graph, and a feasible flow less a maximum
flow on its residual network.  A depth-3 phase of unit arcs, as the first
on a node-split target network, is a bipartite matching: the engine finds
the DFS's one by deferred acceptance.

Determinism: arcs are traversed in ascending insertion order everywhere
(BFS level construction and blocking-flow DFS), so a given network always
yields the same flow assignment, not merely the same value.
"""

from typing import NamedTuple, Optional

import numpy as np

from .network import BoundedFlowNetwork, _integers


class InfeasibleFlowError(RuntimeError):
    """No flow satisfies the lower/upper bounds of the network."""


class FlowAssignment(NamedTuple):
    """Per-arc integer flows as an int64 column aligned with the network's
    arcs, the net source-to-sink value and, for a maximum flow, the source
    side of a minimum cut as a node mask."""

    flow: np.ndarray
    value: int
    cut: Optional[np.ndarray] = None


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
    ``_live[u]`` positive-residual slots leaving node ``u`` lead its CSR
    segment in slot order, so every tie-break resolves toward the lowest
    arc index.  ``_refresh`` rewrites the prefixes of the heads of the
    slots that lost residual: a node other than a flow's source that lost
    a slot had as much flow in, so is such a head.  No phase slot enters
    the source; ``max_flow`` filters its prefix.  Level sweeps gather live
    slots only; the DFS augments a list of the phase slots' residuals,
    written back once per phase: a level graph never holds a reverse slot.

    Each phase sweeps breadth-first from the source, keeping each layer's
    slots into the next layer; a pass back over those layers from the sink
    keeps a slot iff its head reaches the sink.  The DFS so scans
    only slots on shortest source-to-sink paths.  The others lead to nodes
    that cannot reach the sink in the phase, which a DFS would enter and
    leave without touching a residual: the augmenting paths are the same.

    On a phase of depth 3, unit residuals and one slot out of each
    second-layer node, the DFS gives each source slot, in slot order, the
    first free second-layer node its first-layer node has, by slot.  All
    rank the source slots alike, so that is the unique stable matching
    (Gale & Shapley 1962), which deferred acceptance finds.
    """

    def __init__(self, n: int, tail, head, cap):
        self.n = n
        m = len(tail)
        heads = np.empty(2 * m, dtype=np.int64)
        heads[0::2] = head
        heads[1::2] = tail
        self._head_np = heads  # the tail of slot q is the head of q ^ 1
        tails = heads.reshape(-1, 2)[:, ::-1].flatten()
        tails *= 2  # the sort key: by node, live slots first, by slot
        tails[0::2] += np.less_equal(cap, 0)
        tails[1::2] += 1
        counts = np.bincount(tails, minlength=2 * n).reshape(n, 2)
        # the stable order, by a plain sort of key * 2m + slot: below 2^63
        # while n and m are below 2^30, more than any network in memory
        tails *= 2 * m
        tails += np.arange(2 * m)
        tails.sort()
        self._adj_np = np.remainder(tails, max(2 * m, 1), out=tails)
        self._live = counts[:, 0].copy()
        self._indptr_np = np.concatenate(([0], counts.sum(1).cumsum()))
        self.cap = np.zeros(2 * m, dtype=np.int64)
        self.cap[0::2] = cap

    def pushed(self) -> np.ndarray:
        """Net flow each arc gained, in arc order, as a read-only column."""
        flow = self.cap[1::2].copy()  # the reverse slots start at 0
        flow.setflags(write=False)
        return flow

    def _prefix(self, nodes):
        """CSR positions of the live slots leaving ``nodes``, node by node."""
        counts = self._live[nodes]
        ends = counts.cumsum()
        return np.arange(ends[-1] if ends.size else 0) + (
            self._indptr_np[nodes] - ends + counts).repeat(counts)

    def _refresh(self, moved):
        """Rewrite the live prefixes of the ``moved`` slots' heads from
        their old prefixes and the partners they gained, kept where live."""
        nodes = _distinct(self._head_np[moved])
        slots = np.concatenate((self._adj_np[self._prefix(nodes)], moved ^ 1))
        slots = slots[self.cap[slots] > 0]
        span = self._head_np.size
        key = self._head_np[slots ^ 1] * span
        key += slots
        tails, slots = np.divmod(_distinct(key), span)
        self._live[nodes] = np.bincount(tails, minlength=self.n)[nodes]
        self._adj_np[self._prefix(nodes)] = slots

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while (layers := self._phase_csr(s, t)) is not None:
            slots = np.concatenate(layers)
            res = self._serial_dictatorship(layers)
            if res is None:
                res = self._blocking_flow(*self._csr(slots, t))
            pushed = self.cap[slots] - res
            total += sum(pushed[slots.size - layers[-1].size:].tolist())
            layers = res = None  # free the phase before the refresh
            moved = np.flatnonzero(pushed)  # and keep only the moved slots
            slots, pushed = slots[moved], pushed[moved]
            self.cap[slots] -= pushed
            self.cap[slots ^ 1] += pushed
            self._refresh(slots)
            live = self._adj_np[self._indptr_np[s]:][:self._live[s]]
            kept = live[self.cap[live] > 0]
            self._live[s] = kept.size
            live[:kept.size] = kept
        return total

    def _phase_csr(self, s: int, t: int):
        """The phase's slots by layer, from the sink's back to the
        source's, each by tail and then slot, or ``None`` when the sink is
        out of reach.  A sweep that misses the sink keeps the nodes it
        reached as ``cut``."""
        unseen = np.ones(self.n, dtype=bool)
        unseen[s] = False
        frontier = np.array([s], dtype=np.int64)
        layers = []
        while frontier.size and unseen[t]:
            pos = self._adj_np[self._prefix(frontier)]
            nxt = self._head_np[pos]
            fresh = unseen[nxt]
            layers.append(pos[fresh])
            frontier = _distinct(nxt[fresh])
            unseen[frontier] = False
        if unseen[t]:
            self.cut = ~unseen
            return None
        alive = np.zeros(self.n, dtype=bool)
        alive[t] = True
        kept = []
        while layers:
            pos = layers.pop()
            pos = pos[alive[self._head_np[pos]]]
            alive[self._head_np[pos ^ 1]] = True
            kept.append(pos)
        return kept

    def _serial_dictatorship(self, layers):
        """The phase's residuals after its blocking flow, by deferred
        acceptance, or ``None`` unless it is a depth-3 unit phase."""
        if len(layers) != 3:
            return None
        last, mid, first = layers
        head, free = self._head_np, first.size
        if ((np.diff(head[last ^ 1]) == 0).any()
                or (self.cap[np.concatenate(layers)] != 1).any()):
            return None
        top, tails = head[first], head[mid ^ 1]
        at = np.searchsorted(tails, top)  # each proposer's slot in ``mid``
        stop = np.searchsorted(tails, top, side="right")
        holder = np.full(self.n, free)  # the rank holding each node
        active = np.arange(free)  # the proposers' ranks, by source slot
        rounds = free // 64 + 16  # longer chains of displacements: the DFS
        while active.size and (rounds := rounds - 1) >= 0:
            v = head[mid[at[active]]]
            held = holder[v]
            np.minimum.at(holder, v, active)
            won = holder[v] == active
            # the rejected, and the holders the winners displaced, move on
            active = np.concatenate((active[~won], held[won & (held < free)]))
            at[active] += 1
            active = active[at[active] < stop[active]]
        if active.size:
            return None
        rank = holder[head[last ^ 1]]
        won = rank[rank < free]  # a matched slot's residual falls to 0
        return np.concatenate((rank == free,
                               1 - np.bincount(at[won], minlength=mid.size),
                               1 - np.bincount(won, minlength=free)))

    def _csr(self, slots, t):
        """The phase ``slots`` as a CSR ``(res, nxt, indptr)`` on the
        phase's own node ids, source last and sink next: each node's slots
        in slot order, with their residuals and their heads by that id."""
        tails = self._head_np[slots ^ 1]
        indptr = np.flatnonzero(np.diff(tails, prepend=-1, append=-1))
        local = np.empty(self.n, dtype=np.int64)
        local[tails[indptr[:-1]]] = np.arange(indptr.size - 1)
        local[t] = indptr.size - 1
        return (self.cap[slots].tolist(),
                local[self._head_np[slots]].tolist(), indptr.tolist())

    def _blocking_flow(self, res, nxt, indptr):
        """The residuals ``res`` after augmenting them along the phase CSR
        until no path is left.  A node whose slots are used up keeps its
        cursor at their end, so a later visit backs out of it at once."""
        t = len(indptr) - 1
        u = s = t - 1
        it = indptr[:-1]
        path: list[int] = []  # positions in ``res``
        while True:
            if u == t:
                caps = [res[k] for k in path]
                aug = min(caps)
                for k in path:
                    res[k] -= aug
                # resume from the tail of the first saturated slot
                del path[caps.index(aug):]
                u = nxt[path[-1]] if path else s
                continue
            k = it[u]
            end = indptr[u + 1]
            while k < end and not res[k]:
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
        return res


def max_flow_dinic(net: BoundedFlowNetwork) -> FlowAssignment:
    """Maximum integer flow on a network whose lower bounds are all zero.

    Repeated breadth-first level graphs with blocking flows on the residual
    network.  Returns the per-arc flows, the flow value and the source side
    of a minimum cut: what the last level sweep reached.

    Raises:
        ValueError: a lower bound is nonzero, a path of unbounded arcs joins
            source to sink, or the flow's cut fails :func:`verify_optimality`.
    """
    if np.count_nonzero(net.lower):
        raise ValueError("max_flow_dinic requires all lower bounds zero")
    engine = _ResidualDinic(net.node_count, net.tail, net.head, net.cap)
    value = engine.max_flow(net.source, net.sink)
    if net.unbounded.size and value >= net.cap[net.unbounded[0]]:
        raise ValueError("a path of unbounded arcs joins source to sink")
    assignment = FlowAssignment(engine.pushed(), value, engine.cut)
    del engine  # before the check, which needs none of it
    verify_optimality(net, assignment)
    return assignment


def build_associate_graph(net: BoundedFlowNetwork) -> BoundedFlowNetwork:
    """Lower-bound elimination transform.

    Adds a fresh source/sink pair; every original arc keeps its endpoints
    with capacity ``cap - lower``, and each node gains an arc from the new
    source with capacity equal to the sum of lower bounds entering it,
    plus an arc to the new sink with capacity equal to the sum of lower
    bounds leaving it.  The images of the network's ``m`` arcs are the
    first ``m`` arcs of the result, in order.
    """
    n = net.node_count
    nodes = np.arange(n)
    tail = np.concatenate((net.tail, np.full(n, n), nodes))
    head = np.concatenate((net.head, nodes, np.full(n, n + 1)))
    cap = np.concatenate((net.cap - net.lower,
                          _node_sums(n, net.head, net.lower),
                          _node_sums(n, net.tail, net.lower)))
    return BoundedFlowNetwork.from_columns(
        n + 2, n, n + 1, tail, head, np.zeros(tail.size, dtype=np.int64),
        cap, net.unbounded)


def feasible_circulation(net: BoundedFlowNetwork) -> Optional[FlowAssignment]:
    """Circulation satisfying every arc's bounds, or ``None`` if none exists.

    Saturates the associate graph: a circulation exists exactly when its
    maximum flow equals the sum of all lower bounds, in which case the
    circulation is ``image flow + lower`` per arc.  The reported value is
    the flow returning from the network's sink to its source.
    """
    assignment = max_flow_dinic(build_associate_graph(net))
    if assignment.value != sum(net.lower.tolist()):
        return None
    flow = assignment.flow[:net.tail.size] + net.lower
    back = (net.tail == net.sink) & (net.head == net.source)
    return FlowAssignment(flow, sum(flow[back].tolist()))


def min_flow_with_bounds(net: BoundedFlowNetwork) -> FlowAssignment:
    """Feasible flow of minimum source-to-sink value.

    A feasible circulation, with an unbounded return arc sink -> source
    added unless one of lower bound zero exists, less a maximum flow from
    sink back to source on its residual network with the return arc closed:
    both are certified, and what is left is minimal among feasible flows.
    The value is the net source -> sink flow of the arcs other than the
    return arc, which carries that value back, or nothing if it is negative.

    Raises:
        InfeasibleFlowError: no flow satisfies the bounds.
        ValueError: a second unbounded sink -> source arc, so no minimum, or
            a flow's cut fails :func:`verify_optimality`.
    """
    n, s, t, m = net.node_count, net.source, net.sink, net.tail.size
    u = net.unbounded
    loops = u[(net.tail[u] == t) & (net.head[u] == s)]
    back = loops[net.lower[loops] == 0]
    if back.size:
        work, r = net, int(back.min())
    else:
        work = BoundedFlowNetwork.from_columns(
            n, s, t, np.append(net.tail, t), np.append(net.head, s),
            np.append(net.lower, 0), np.append(net.cap, 0), np.append(u, m))
        r = m
    feasible = feasible_circulation(work)
    if feasible is None:
        raise InfeasibleFlowError("no feasible flow")
    if loops.size > bool(back.size):
        raise ValueError("the minimum flow is unbounded below")
    # residual arc 2i raises arc i's flow f, and arc 2i + 1 lowers it
    f = feasible.flow
    ends = np.stack((work.tail, work.head), 1)
    tail, head = ends.ravel(), ends[:, ::-1].ravel()
    res = np.stack((work.cap - f, f - work.lower), 1).ravel()
    res[[2 * r, 2 * r + 1]] = 0  # the return arc, closed
    res[(head == t) | (tail == s)] = 0  # no level graph from t uses them
    cancel = max_flow_dinic(BoundedFlowNetwork.from_columns(
        n, t, s, tail, head, np.broadcast_to(0, res.size), res))
    value = int(f[r]) - cancel.value
    final = f + cancel.flow[0::2] - cancel.flow[1::2]
    final[r] = max(value, 0)
    return FlowAssignment(final[:m], value)


def validate_assignment(net: BoundedFlowNetwork,
                        assignment: FlowAssignment) -> None:
    """Raise ``ValueError`` unless bounds hold on every arc and every node
    other than source/sink conserves flow exactly; the imbalances sum to
    zero, so the source then sends what the sink takes in."""
    if len(assignment.flow) != net.tail.size:
        raise ValueError("flow vector length mismatch")
    flow, i = _integers(assignment.flow)
    if i is not None:
        raise ValueError("non-integer flow")
    above = flow > net.cap
    above[net.unbounded] = False  # the sentinel bounds no flow
    bad = (flow < net.lower) | above
    if bad.any():
        i = bad.argmax()
        raise ValueError(f"flow {flow[i]} violates bounds on {net._arc(i)}")
    balance = (_node_sums(net.node_count, net.head, flow)
               - _node_sums(net.node_count, net.tail, flow))
    balance[[net.source, net.sink]] = 0
    if balance.any():
        v = (balance != 0).argmax()
        raise ValueError(f"conservation violated at node {v}")


def verify_optimality(net: BoundedFlowNetwork,
                      assignment: FlowAssignment) -> None:
    """Raise ``ValueError`` unless ``assignment`` is a valid flow that its
    ``cut``, a node mask holding the source and not the sink, shows maximum.

    By weak duality no flow across the cut exceeds its capacity: that of
    the arcs leaving it, none unbounded, less the lower bounds of the arcs
    entering it.  The value must cross the cut and equal that capacity.
    Nothing here searches or trusts the engine that found the cut."""
    validate_assignment(net, assignment)
    side = np.asarray(assignment.cut)
    if side.dtype != bool or side.shape != (net.node_count,):
        raise ValueError("the cut is not a mask over the nodes")
    if not side[net.source] or side[net.sink]:
        raise ValueError("the cut must hold the source and not the sink")
    out, into = side[net.tail], side[net.head]
    leaving, entering = out & ~into, into & ~out
    if leaving[net.unbounded].any():
        raise ValueError("an unbounded arc leaves the cut")
    flow, _ = _integers(assignment.flow)
    capacity = (sum(net.cap[leaving].tolist())
                - sum(net.lower[entering].tolist()))
    across = sum(flow[leaving].tolist()) - sum(flow[entering].tolist())
    if not capacity == across == assignment.value:
        raise ValueError(f"cut capacity {capacity}, flow across the cut "
                         f"{across} and flow value {assignment.value} differ")
