"""Independent reference implementations used as oracles.

Everything here is deliberately naive (shortest augmenting paths, plain
breadth-first distances, subset enumeration, one matrix exponential per
quadrature sample, Runge-Kutta integration, per-line and per-arc loops)
and shares no code with the library's solvers; the Gramian reference
borrows only the library's ``expm``, the QR design reference its
first-order-hold step ``_foh``, the parser reference its
``EdgeListError``, the network references its ``Arc`` tuple and ``INF``
and the cover peel its ``PathCover``.  The reference sweep is the
exception: it runs the library's ``solve`` and ``driver_count`` one trial
at a time and prints with its ``sweep_to_csv``, to check the batching of
trials, not the counts.  The full-basis rank and the QR
design are the plain forms of the library's rank, whose basis stops at
full rank, and of its least-squares design.
"""

import math
import random
from bisect import bisect_right
from collections import defaultdict, deque
from itertools import accumulate

import numpy as np

from targetflow.certify import RANK_RTOL, _foh, expm
from targetflow.cover import PathCover, solve
from targetflow.experiments import SweepResult, SweepRow, sweep_to_csv
from targetflow.graph import EdgeListError
from targetflow.matching import driver_count
from targetflow.network import INF, Arc


def parse_lines(lines):
    """Edge-list parser as one loop over ``lines``: returns the node count,
    the edges in first-appearance order with duplicates dropped, and the
    label -> id map; raises ``EdgeListError`` naming the first bad line."""
    labels = {}
    edges = []
    seen = set()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListError(f"expected 2 tokens, got {len(parts)}", line_no)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(f"non-integer token in {parts!r}", line_no) from None
        if a < 0 or b < 0:
            raise EdgeListError("labels must be non-negative", line_no)
        for lab in (a, b):
            if lab not in labels:
                labels[lab] = len(labels)
        e = (labels[a], labels[b])
        if e not in seen:
            seen.add(e)
            edges.append(e)
    return len(labels), tuple(edges), labels


def er_edges(n, mu, seed):
    """Edges of ``generate_er(n, mu, seed)``, drawn one pair at a time:
    ``randrange`` tail, then head, kept unless a self-loop or a repeat."""
    target = round(n * mu / 2)
    rng = random.Random(seed)
    if 2 * target >= n * (n - 1):
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        return rng.sample(pairs, target)
    chosen = set()
    edges = []
    while len(edges) < target:
        t = rng.randrange(n)
        h = rng.randrange(n)
        if t != h and (t, h) not in chosen:
            chosen.add((t, h))
            edges.append((t, h))
    return edges


def sf_edges(n, mu, gamma, seed):
    """Edges of ``generate_sf(n, mu, gamma, seed)``, drawn one pair at a
    time by bisection over the cumulative weights, with the same attempt
    budget and ``RuntimeError``."""
    target = round(n * mu / 2)
    alpha = 1.0 / (gamma - 1.0)
    cum = list(accumulate((i + 1) ** (-alpha) for i in range(n)))
    total = cum[-1]
    rng = random.Random(seed)
    chosen = set()
    edges = []
    budget = 100 * max(target, 1)
    while len(edges) < target:
        if budget <= 0:
            raise RuntimeError(f"edge sampling did not converge within "
                               f"{100 * max(target, 1)} attempts")
        budget -= 1
        t = bisect_right(cum, rng.random() * total)
        h = bisect_right(cum, rng.random() * total)
        if t != h and (t, h) not in chosen:
            chosen.add((t, h))
            edges.append((t, h))
    return edges


def target_network_arcs(g, targets):
    """Arcs of the node-split target network, built one ``Arc`` at a time:
    inject and collect arcs per target, relay arcs per other node, then one
    arc per graph edge."""
    members = sorted(set(targets))
    n = g.n
    arcs = [Arc(2 * n + 1, n + v, 0, 1) for v in members]
    arcs += [Arc(v, 2 * n, 0, 1) for v in members]
    arcs += [Arc(v, n + v, 0, 1) for v in range(n) if v not in members]
    arcs += [Arc(n + t, h, 0, 1) for t, h in g.edges]
    return tuple(arcs)


def circulation_network_arcs(g, targets):
    """Arcs of the bounded circulation network, built one ``Arc`` at a
    time: source and sink arcs per node, split arcs with lower bound one on
    targets, one arc per graph edge, then the unbounded return arc."""
    members = set(targets)
    n = g.n
    src, snk = 2 * n, 2 * n + 1
    arcs = [Arc(src, v, 0, 1) for v in range(n)]
    arcs += [Arc(n + v, snk, 0, 1) for v in range(n)]
    arcs += [Arc(v, n + v, int(v in members), 1) for v in range(n)]
    arcs += [Arc(n + t, h, 0, 1) for t, h in g.edges]
    arcs.append(Arc(snk, src, 0, INF))
    return tuple(arcs)


def peel_cover(cover_edges, targets):
    """``PathCover`` of a degree-at-most-one edge set: targets on no edge
    as singleton paths, chains from in-degree-zero nodes in ascending
    order, then cycles, each started from the smallest node left, which a
    scan over all of them finds."""
    nxt = dict(cover_edges)
    prv = {h: t for t, h in cover_edges}
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


def edmonds_karp_value(node_count, arcs, s, t):
    """Maximum-flow value by shortest augmenting paths on a dict residual.

    ``arcs`` are (tail, head, cap) triples; parallel arcs merge, which
    leaves the value unchanged.
    """
    residual = defaultdict(lambda: defaultdict(int))
    for tail, head, cap in arcs:
        residual[tail][head] += cap
    value = 0
    while True:
        parent = {s: None}
        q = deque([s])
        while q and t not in parent:
            u = q.popleft()
            for v, c in residual[u].items():
                if c > 0 and v not in parent:
                    parent[v] = u
                    q.append(v)
        if t not in parent:
            return value
        bottleneck = None
        v = t
        while parent[v] is not None:
            u = parent[v]
            c = residual[u][v]
            bottleneck = c if bottleneck is None else min(bottleneck, c)
            v = u
        v = t
        while parent[v] is not None:
            u = parent[v]
            residual[u][v] -= bottleneck
            residual[v][u] += bottleneck
            v = u
        value += bottleneck


def residual_reach(node_count, arcs, flow, s):
    """Nodes a breadth-first search reaches from ``s`` in the residual
    network of per-arc ``flow`` over ``Arc`` tuples: forward while below
    capacity (always on an ``INF`` arc), back while above the lower
    bound.  After a maximum flow they are the source side of a minimum
    cut."""
    out = [[] for _ in range(node_count)]
    for a, f in zip(arcs, flow):
        if a.cap == INF or f < a.cap:
            out[a.tail].append(a.head)
        if f > a.lower:
            out[a.head].append(a.tail)
    seen = {s}
    queue = deque([s])
    while queue:
        for v in out[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def double_cover_drivers(g):
    """Whole-network driver count ``max(n - m, 1)``, with ``m`` the maximum
    matching of the bipartite double cover as an augmenting-path flow:
    source -> u and n + v -> sink per node, u -> n + v per edge (u, v), all
    of capacity one."""
    n, source, sink = g.n, 2 * g.n, 2 * g.n + 1
    arcs = [(source, u, 1) for u in range(n)]
    arcs += [(n + v, sink, 1) for v in range(n)]
    arcs += [(u, n + v, 1) for u, v in g.edges]
    return max(n - edmonds_karp_value(2 * n + 2, arcs, source, sink), 1)


def shortest_path_slots(slots, s, t):
    """Residual slots on a shortest ``s``-``t`` path, as (tail, index)
    pairs sorted by tail node, then by index.

    ``slots`` are (tail, head, residual) triples; only slots of positive
    residual count.  Two plain BFS passes give each node's distance from
    ``s`` and to ``t``; slot u->v qualifies iff
    dist(s, u) + 1 + dist(v, t) == dist(s, t).
    """
    out = defaultdict(list)
    into = defaultdict(list)
    for tail, head, residual in slots:
        if residual > 0:
            out[tail].append(head)
            into[head].append(tail)

    def distances(root, nbrs):
        dist = {root: 0}
        q = deque([root])
        while q:
            u = q.popleft()
            for v in nbrs[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    q.append(v)
        return dist

    ds = distances(s, out)
    dt = distances(t, into)
    if t not in ds:
        return []
    return sorted((tail, i) for i, (tail, head, residual) in enumerate(slots)
                  if residual > 0 and tail in ds and head in dt
                  and ds[tail] + 1 + dt[head] == ds[t])


def sample_feasible_flow_value(node_count, arcs, s, t, rng):
    """Value of some feasible flow: a few randomized augmenting passes on
    the same dict residual, stopping early at a random point."""
    residual = defaultdict(lambda: defaultdict(int))
    for tail, head, cap in arcs:
        residual[tail][head] += cap
    value = 0
    for _ in range(rng.randrange(0, 6)):
        parent = {s: None}
        q = deque([s])
        while q and t not in parent:
            u = q.popleft()
            nbrs = [v for v, c in residual[u].items() if c > 0 and v not in parent]
            rng.shuffle(nbrs)
            for v in nbrs:
                parent[v] = u
                q.append(v)
        if t not in parent:
            break
        v = t
        push = None
        while parent[v] is not None:
            u = parent[v]
            push = residual[u][v] if push is None else min(push, residual[u][v])
            v = u
        push = rng.randint(1, push)
        v = t
        while parent[v] is not None:
            u = parent[v]
            residual[u][v] -= push
            residual[v][u] += push
            v = u
        value += push
    return value


def min_cover_drivers(g, targets):
    """Exhaustive minimum driver count: for every edge subset in which no
    node repeats as a tail or as a head, count the chains that touch a
    target plus the targets left untouched; minimize, floor at one."""
    tset = set(targets)
    edges = g.edges
    m = len(edges)
    best = len(tset)
    for mask in range(1 << m):
        nxt = {}
        prv = {}
        ok = True
        for i in range(m):
            if mask >> i & 1:
                a, b = edges[i]
                if a in nxt or b in prv:
                    ok = False
                    break
                nxt[a] = b
                prv[b] = a
        if not ok:
            continue
        touched = set(nxt) | set(prv)
        paths = sum(1 for v in tset if v not in touched)
        for head in nxt:
            if head in prv:
                continue
            hits_target = head in tset
            node = head
            while node in nxt:
                node = nxt[node]
                hits_target = hits_target or node in tset
            if hits_target:
                paths += 1
        best = min(best, paths)
        if best == 0:
            break
    return max(best, 1)


def enumerate_flows(node_count, arcs, s, t):
    """Yield every integer flow vector satisfying bounds and conservation
    at all nodes except ``s`` and ``t``.  ``arcs`` are (tail, head, lower,
    cap) with small finite caps."""
    ranges = [range(lo, cap + 1) for _, _, lo, cap in arcs]

    def rec(i, flows):
        if i == len(arcs):
            balance = [0] * node_count
            for (tail, head, _, _), f in zip(arcs, flows):
                balance[tail] -= f
                balance[head] += f
            if all(balance[v] == 0 for v in range(node_count)
                   if v not in (s, t)):
                yield tuple(flows)
            return
        for f in ranges[i]:
            flows.append(f)
            yield from rec(i + 1, flows)
            flows.pop()

    yield from rec(0, [])


def brute_min_flow_value(node_count, arcs, s, t):
    """Minimum net source outflow over all feasible flows, or None when no
    feasible flow exists."""
    best = None
    for flows in enumerate_flows(node_count, arcs, s, t):
        value = sum(f for (tail, _, _, _), f in zip(arcs, flows) if tail == s)
        value -= sum(f for (_, head, _, _), f in zip(arcs, flows) if head == s)
        if best is None or value < best:
            best = value
    return best


def brute_circulation_exists(node_count, arcs):
    """True iff some integer flow respects all bounds and conserves at
    every node."""
    for flows in enumerate_flows(node_count, arcs, -1, -1):
        return True
    return False


def brute_max_matching_size(g):
    """Largest edge subset in which no node repeats as tail or head."""
    edges = g.edges
    m = len(edges)
    best = 0
    for mask in range(1 << m):
        tails = set()
        heads = set()
        size = 0
        ok = True
        for i in range(m):
            if mask >> i & 1:
                a, b = edges[i]
                if a in tails or b in heads:
                    ok = False
                    break
                tails.add(a)
                heads.add(b)
                size += 1
        if ok and size > best:
            best = size
    return best


def per_sample_gramian(sys, t_f, steps):
    """Controllability Gramian by composite Simpson quadrature, with a fresh
    exponential e^{A (t_f - k h)} for every sample k = 0, ..., steps."""
    h = t_f / steps
    n = sys.A.shape[0]
    w = np.zeros((n, n))
    for k in range(steps + 1):
        phi_b = expm(sys.A * (t_f - k * h)) @ sys.B
        weight = 1.0 if k in (0, steps) else (4.0 if k % 2 else 2.0)
        w += weight * (phi_b @ phi_b.T)
    return w * (h / 3.0)


def full_basis_target_rank(sys):
    """Kalman target rank from the whole block Arnoldi basis Q of the
    reachable subspace (no early stop): the number of singular values of
    C Q above RANK_RTOL times the largest."""
    q = np.empty((sys.A.shape[0], 0))
    block, floor = sys.B, RANK_RTOL * np.abs(sys.B).max(initial=0.0)
    a_floor = RANK_RTOL * np.abs(sys.A).max(initial=0.0)
    for _ in range(sys.A.shape[0]):
        for _ in range(2):
            block = block - q @ (q.T @ block)
        u, s, _ = np.linalg.svd(block, full_matrices=False)
        new = u[:, s > floor]
        new[~block.any(axis=1)] = 0.0
        if not new.size:
            break
        q = np.hstack([q, new])
        block, floor = sys.A @ new, a_floor
    s = np.linalg.svd(sys.C @ q, compute_uv=False)
    return int((s > RANK_RTOL * s.max(initial=0.0)).sum())


def qr_design_input(sys, x0, t_f, steps):
    """Least-norm first-order-hold samples (end samples weighted one half)
    that zero C x(t_f): the sample maps stepped back from t_f in pairs, the
    free response by ``matrix_power`` and the samples from a QR
    factorization of the stacked transposed maps."""
    phi, g0, g1 = _foh(sys, t_f, steps)
    k, m = sys.C.shape[0], sys.B.shape[1]
    ht = np.empty((steps + 1, m, k))
    ht[steps] = (sys.C @ g1).T
    pair = np.hstack([g0 + phi @ g1, g0])
    for j in range(steps - 1, 0, -1):
        ht[j] = (sys.C @ pair[:, :m]).T
        pair = phi @ pair
    ht[0] = (sys.C @ pair[:, m:]).T
    y_free = sys.C @ np.linalg.matrix_power(phi, steps) @ x0
    ends = [0, steps]
    ht[ends] *= np.sqrt(2.0)
    q, r = np.linalg.qr(ht.reshape(-1, k))
    u = (-q @ np.linalg.solve(r.T, y_free)).reshape(steps + 1, m)
    u[ends] *= np.sqrt(2.0)
    return u


def rk4_response(sys, u, x0, t_f, steps):
    """Final state of dx/dt = A x + B u(t) by fixed-step fourth-order
    Runge-Kutta, with ``u`` (samples uniform on [0, t_f], rows per sample)
    interpolated linearly at every stage time."""
    u = np.asarray(u, dtype=float)
    x = np.asarray(x0, dtype=float).copy()
    a, b = sys.A, sys.B
    h = t_f / steps
    m = u.shape[0] - 1

    def u_at(tau):
        pos = tau / t_f * m
        i = min(int(pos), m - 1)
        frac = pos - i
        return u[i] * (1.0 - frac) + u[i + 1] * frac

    for k in range(steps):
        t = k * h
        u0, um, u1 = u_at(t), u_at(t + h / 2), u_at(t + h)
        k1 = a @ x + b @ u0
        k2 = a @ (x + h / 2 * k1) + b @ um
        k3 = a @ (x + h / 2 * k2) + b @ um
        k4 = a @ (x + h * k3) + b @ u1
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def per_trial_sweep(g, fractions, trials, seed):
    """The fraction sweep's CSV with one ``solve`` per trial: the same
    random target sets, drawn in (fraction, trial) order, and the same row
    arithmetic as ``sweep``."""
    nd_full = driver_count(g)
    rng = random.Random(seed)
    rows = []
    for f in sorted(fractions):
        size = max(1, round(f * g.n))
        counts = [solve(g, sorted(rng.sample(range(g.n), size))).min_drivers
                  for _ in range(trials)]
        ratios = [c / nd_full for c in counts]
        mean = sum(ratios) / trials
        std = math.sqrt(sum((r - mean) ** 2 for r in ratios) / trials)
        rows.append(SweepRow(f, trials, sum(counts) / trials, mean, std))
    return sweep_to_csv(SweepResult(tuple(rows), nd_full))
