"""Answer checks written independently of the targetflow package.

Every function reads the program's output as text and the input files the
program was given, and returns a list of problems; an empty list means the
answer is correct.  Nothing here imports targetflow, so a defect shared by
the program and its own oracles cannot hide here.
"""

import json
from collections import deque

SWEEP_HEADER = "f,trials,mean_nD,ratio,std"
SWEEP_TOLERANCE = 0.15
Y_TOLERANCE = 1e-3


def read_edges(path):
    """``tail head`` label pairs; comments and blank lines skipped."""
    edges = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if line and not line.startswith("#"):
                a, b = line.split()
                edges.append((int(a), int(b)))
    return edges


def read_targets(path):
    with open(path, encoding="utf-8") as fh:
        lines = [raw.strip() for raw in fh]
    return {int(line) for line in lines if line and not line.startswith("#")}


def _successors(edges):
    succ = {}
    for t, h in edges:
        succ.setdefault(t, []).append(h)
        succ.setdefault(h, [])
    return succ


def check_solve(edges, targets, text):
    """Check a ``solve`` report: a valid cover of the targets, counts that
    agree with the flow value, and a flow no augmenting path can raise."""
    try:
        report = json.loads(text)
        paths, cycles = report["paths"], report["cycles"]
        flow_value, min_drivers = report["flow_value"], report["min_drivers"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable solve report: {exc!r}"]
    problems = []
    succ = _successors(edges)
    edge_set = set(edges)
    seen = set()
    nxt, prv = {}, {}
    for seq, closed in ([(p, False) for p in paths]
                        + [(c, True) for c in cycles]):
        if not seq:
            problems.append("empty path or cycle")
            continue
        for v in seq:
            if v in seen:
                problems.append(f"node {v} used twice")
            elif v not in succ:
                problems.append(f"node {v} is not in the graph")
            seen.add(v)
        links = zip(seq, seq[1:] + seq[:1]) if closed else zip(seq, seq[1:])
        for a, b in links:
            if (a, b) not in edge_set:
                problems.append(f"edge ({a}, {b}) is not in the graph")
            nxt[a], prv[b] = b, a
    missing = targets - seen
    if missing:
        problems.append(f"{len(missing)} targets uncovered, e.g. {min(missing)}")
    if len(paths) != len(targets) - flow_value:
        problems.append(f"{len(paths)} paths, but |targets| - flow = "
                        f"{len(targets) - flow_value}")
    if min_drivers != max(len(paths), 1):
        problems.append(f"min_drivers {min_drivers} with {len(paths)} paths")
    if problems:
        return problems
    return _check_max_flow(succ, targets, nxt, prv, flow_value)


def _check_max_flow(succ, targets, nxt, prv, flow_value):
    """Rebuild the node-split network's flow from the cover edges and look
    for an augmenting path.

    Network: injector -> out(t) and in(t) -> collector for each target t,
    in(v) -> out(v) for each other node v, out(a) -> in(b) for each edge
    (a, b); all capacities one.  Cover edges carry the flow, so an inject
    arc is used iff its target has a cover successor, a collect arc iff its
    target has a cover predecessor, and a relay arc iff its node has both.
    """
    problems = []
    for v in set(nxt) | set(prv):
        if v not in targets and (v in nxt) != (v in prv):
            problems.append(f"non-target {v} ends a path: flow not conserved")
    value = sum(1 for t in targets if t in prv)
    if value != flow_value:
        problems.append(f"cover carries flow {value}, report says {flow_value}")
    if problems:
        return problems
    # BFS over the residual network; a node is ("in" | "out", label).
    queue = deque(("out", t) for t in targets if t not in nxt)
    reached = set(queue)
    while queue:
        side, v = queue.popleft()
        if side == "out":
            step = [("in", w) for w in succ[v] if nxt.get(v) != w]
            if v not in targets and v in nxt:
                step.append(("in", v))  # undo the relay arc
        else:
            if v in targets and v not in prv:
                return [f"augmenting path reaches the collector at {v}: "
                        f"flow {flow_value} is not maximum"]
            step = [("out", prv[v])] if v in prv else []
            if v not in targets and v not in prv:
                step.append(("out", v))
        for node in step:
            if node not in reached:
                reached.add(node)
                queue.append(node)
    return []


def check_matching(text, solve_text):
    """Whole-network count from ``matching`` equals the all-target solve."""
    try:
        count = int(text)
        min_drivers = json.loads(solve_text)["min_drivers"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable matching or solve output: {exc!r}"]
    if count != min_drivers:
        return [f"matching says {count} drivers, solve says {min_drivers}"]
    return []


def check_sweep(text, fractions, trials):
    """Rows in fraction order, each ratio within 0.15 of f, exactly 1 at
    f = 1."""
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return ["missing sweep CSV header"]
    if len(lines) - 1 != len(fractions):
        return [f"{len(lines) - 1} rows for {len(fractions)} fractions"]
    problems = []
    for line, f in zip(lines[1:], fractions):
        try:
            rf, rtrials, _, ratio, _ = (float(x) for x in line.split(","))
        except ValueError:
            problems.append(f"unreadable row {line!r}")
            continue
        if rf != f or rtrials != trials:
            problems.append(f"row {line!r} is not f={f} with {trials} trials")
        if abs(ratio - f) > SWEEP_TOLERANCE:
            problems.append(f"ratio {ratio} at f={f} is off by more than "
                            f"{SWEEP_TOLERANCE}")
        if f == 1.0 and ratio != 1.0:
            problems.append(f"ratio {ratio} at f=1 is not exactly 1")
    return problems


def check_verify(edges, targets, text):
    """A passed certification whose claim the graph supports: every target
    reachable from an attachment node, residual output within tolerance."""
    try:
        report = json.loads(text)
        attached = [lab for _, lab in report["attachments"]]
        controllable, passed = report["controllable"], report["passed"]
        y_norm, rank = report["y_norm"], report["rank"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable verify report: {exc!r}"]
    problems = []
    succ = _successors(edges)
    reached = set(v for v in attached if v in succ)
    queue = deque(reached)
    while queue:
        for w in succ[queue.popleft()]:
            if w not in reached:
                reached.add(w)
                queue.append(w)
    unreachable = targets - reached
    if controllable and unreachable:
        problems.append(f"reported controllable, but target "
                        f"{min(unreachable)} is unreachable from every "
                        f"attachment")
    if report.get("targets") != len(targets) or rank != len(targets):
        problems.append(f"rank {rank} over {report.get('targets')} targets, "
                        f"expected {len(targets)}")
    if not passed:
        problems.append("certification did not pass")
    if y_norm is None or y_norm > Y_TOLERANCE:
        problems.append(f"y_norm {y_norm} above {Y_TOLERANCE}")
    return problems
