"""Child-process side of the benchmark: input set-up and in-process passes.

Run with ``src`` on ``PYTHONPATH``, one invocation per process, so every pass
starts from a fresh interpreter the way the ``targetflow`` command does::

    python3 perfbench/worker.py setup SPEC_JSON OUT_JSON
    python3 perfbench/worker.py spanned ANSWER_ID OUT_JSON -- CLI_ARGS...
    python3 perfbench/worker.py plain ANSWER_ID OUT_JSON -- CLI_ARGS...

``setup`` generates one workload's graph and target files with the package's
own generators.  ``spanned`` replays one CLI invocation through the public
functions of ``graph``, ``cover``, ``flow``, ``matching``, ``certify`` and
``experiments`` in the order the CLI calls them, recording one span per
call.  ``plain`` runs the same invocation in-process through
``targetflow.cli.main`` with no spans, which gives the tracing overhead.
Both passes write the text the CLI would print, so the parent can check
that they reproduce the CLI's answer byte for byte.
"""

import contextlib
import io
import json
import math
import random
import sys
import time

perf_counter = time.perf_counter
# targetflow is imported inside the functions below, after the interpreter
# has started, so that the spanned pass can time the import on its own.


class Tracer:
    """Spans of one answer, kept in memory until the pass ends."""

    def __init__(self, answer):
        self.answer = answer
        self.spans = []
        self._open = []
        # A call made after the answer's root span closes, kept out of the
        # answer's own time (see _spanned).
        self.probe = None

    def span(self, name):
        return _Span(self, name)

    def to_json(self):
        return [{"id": s.id, "name": s.name, "parent": s.parent,
                 "answer": self.answer, "start": s.start, "end": s.end,
                 "counts": s.counts} for s in self.spans]


class _Span:
    __slots__ = ("tracer", "name", "counts", "id", "parent", "start", "end")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.counts = {}

    def __enter__(self):
        tr = self.tracer
        self.id = len(tr.spans)
        self.parent = tr._open[-1].id if tr._open else None
        tr.spans.append(self)
        tr._open.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = perf_counter()
        self.tracer._open.pop()
        return False


def _read_targets(path, labels):
    # Same reading rules as the CLI's target loader; a label the graph does
    # not have is an error here too.
    members = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh.read().splitlines():
            line = raw.strip()
            if line and not line.startswith("#"):
                members.append(labels[int(line)])
    return sorted(set(members))


def _parse(tr, path):
    from targetflow.graph import parse_edge_list
    with tr.span("graph.parse") as sp:
        with open(path, encoding="utf-8") as fh:
            g, labels = parse_edge_list(fh)
        sp.counts["edges"] = len(g.edges)
    return g, labels


def _solve(tr, g, members):
    from targetflow.cover import (Solution, build_target_network,
                                  decompose_cover, extract_cover_edges)
    from targetflow.flow import max_flow_dinic
    with tr.span("cover.build_network") as sp:
        tnet = build_target_network(g, members)
        sp.counts["arcs"] = len(tnet.net.arcs)
    with tr.span("flow.max_flow") as sp:
        assignment = max_flow_dinic(tnet.net)
        sp.counts["value"] = assignment.value
    with tr.span("cover.extract"):
        cover_edges = extract_cover_edges(tnet, assignment)
    with tr.span("cover.decompose"):
        cover = decompose_cover(cover_edges, members)
    return Solution(cover, max(len(cover.paths), 1), assignment.value)


def _driver_count(tr, g):
    from targetflow.matching import max_matching
    with tr.span("matching.max_matching") as sp:
        size = max_matching(g).size
        sp.counts["size"] = size
    return max(g.n - size, 1)


def _solve_files(tr, graph_path, targets_path):
    """Parse, read targets, solve and allocate, as solve and verify do."""
    g, labels = _parse(tr, graph_path)
    members = _read_targets(targets_path, labels)
    inv = {i: lab for lab, i in labels.items()}
    sol = _solve(tr, g, members)
    from targetflow.cover import allocate_drivers
    with tr.span("cover.allocate"):
        alloc = allocate_drivers(sol.cover)
    return g, members, inv, sol, alloc


def _replay_solve(tr, args):
    _, _, inv, sol, alloc = _solve_files(tr, args[0], args[1])
    report = {
        "min_drivers": sol.min_drivers,
        "paths": [[inv[v] for v in p] for p in sol.cover.paths],
        "cycles": [[inv[v] for v in c] for c in sol.cover.cycles],
        "attachments": [[d, inv[v]] for d, v in alloc.attachments],
        "flow_value": sol.flow_value,
    }
    return json.dumps(report, indent=2) + "\n"


def _replay_matching(tr, args):
    g, _ = _parse(tr, args[0])
    return f"{_driver_count(tr, g)}\n"


def _replay_sweep(tr, args):
    """The sweep's own RNG sequence and row arithmetic, one solve at a time."""
    from targetflow.experiments import (SweepResult, SweepRow,
                                        sweep_to_csv)
    opts = dict(zip(args[::2], args[1::2]))
    g, _ = _parse(tr, opts["--graph"])
    fractions = sorted(float(tok) for tok in opts["--fractions"].split(","))
    trials = int(opts["--trials"])
    with tr.span("experiments.sweep"):
        nd_full = _driver_count(tr, g)
        rng = random.Random(int(opts["--seed"]))
        rows = []
        for f in fractions:
            size = max(1, round(f * g.n))
            counts = []
            for _ in range(trials):
                members = sorted(rng.sample(range(g.n), size))
                counts.append(_solve(tr, g, members).min_drivers)
            ratios = [c / nd_full for c in counts]
            mean_ratio = sum(ratios) / trials
            std = math.sqrt(sum((r - mean_ratio) ** 2 for r in ratios)
                            / trials)
            rows.append(SweepRow(f, trials, sum(counts) / trials, mean_ratio,
                                 std))
    return sweep_to_csv(SweepResult(tuple(rows), nd_full))


def _replay_verify(tr, args):
    import numpy as np
    from targetflow import certify
    from targetflow.cli import Y_TOLERANCE
    opts = dict(zip(args[2::2], args[3::2]))
    seed, tf = int(opts["--seed"]), float(opts["--tf"])
    g, members, inv, _, alloc = _solve_files(tr, args[0], args[1])
    with tr.span("certify.realize"):
        sysm = certify.realize_system(g, members, alloc, seed)
    with tr.span("certify.rank"):
        rank = certify.kalman_target_rank(sysm)
    report = {
        "targets": len(members),
        "drivers": alloc.driver_count,
        "attachments": [[d, inv[v]] for d, v in alloc.attachments],
        "rank": rank,
        "controllable": rank == len(members),
        "t_f": tf,
        "tolerance": Y_TOLERANCE,
        "y_norm": None,
        "passed": False,
    }
    if rank == len(members):
        rng = np.random.default_rng(seed)
        x0 = rng.normal(size=g.n)
        x0 /= np.linalg.norm(x0)
        with tr.span("certify.design_input"):
            u = certify.design_input(sysm, x0, tf)
        with tr.span("certify.simulate"):
            _, y_f = certify.simulate(sysm, u, x0, tf)
        report["y_norm"] = float(np.linalg.norm(y_f))
        report["passed"] = report["y_norm"] <= Y_TOLERANCE
        tr.probe = (sysm, tf)
    return json.dumps(report, indent=2) + "\n"


REPLAYS = {"solve": _replay_solve, "matching": _replay_matching,
           "sweep": _replay_sweep, "verify": _replay_verify}


def _spanned(answer, cli_args):
    t0 = perf_counter()
    import targetflow.cli  # noqa: F401  (what the console script imports)
    import_s = perf_counter() - t0
    tr = Tracer(answer)
    with tr.span("cli.answer") as root:
        output = REPLAYS[cli_args[0]](tr, cli_args[1:])
    total = root.end - root.start
    if tr.probe is not None:
        # design_input builds its Gramian internally; a separate call at the
        # same step count splits its time into Gramian and input synthesis.
        from targetflow import certify
        sysm, tf = tr.probe
        with tr.span("certify.gramian"):
            certify.controllability_gramian(sysm, tf, certify.DESIGN_STEPS)
    return {"output": output, "import_s": import_s, "total_s": total,
            "spans": tr.to_json()}


def _plain(cli_args):
    from targetflow.cli import main
    buf = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(cli_args)
    total = perf_counter() - t0
    if code != 0:
        raise SystemExit(f"in-process CLI exited with {code}")
    return {"output": buf.getvalue(), "total_s": total}


def _setup(spec):
    """Generate the graph and target files one workload needs."""
    import numpy
    from targetflow.graph import format_edge_list, generate_er, generate_sf
    t0 = perf_counter()
    if spec["gen"] == "er":
        g = generate_er(spec["n"], spec["mu"], spec["graph_seed"])
    else:
        g = generate_sf(spec["n"], spec["mu"], spec["gamma"],
                        spec["graph_seed"])
    generate_s = perf_counter() - t0
    with open(spec["graph_path"], "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g))
    # The edge-list format cannot carry isolated nodes, so only labels that
    # occur in some edge are eligible targets.
    labels = sorted({v for e in g.edges for v in e})
    frac = spec["target_fraction"]
    targets = []
    if frac is not None:
        size = max(1, round(frac * len(labels)))
        rng = random.Random(spec["target_seed"])
        targets = sorted(rng.sample(labels, size))
        with open(spec["targets_path"], "w", encoding="utf-8") as fh:
            fh.write("".join(f"{v}\n" for v in targets))
    return {"generate_s": generate_s, "nodes": len(labels), "edges": len(g.edges),
            "targets": len(targets), "numpy": numpy.__version__}


def main(argv):
    mode = argv[0]
    if mode == "setup":
        result = _setup(json.loads(argv[1]))
        out = argv[2]
    else:
        answer, out, sep, cli_args = argv[1], argv[2], argv[3], argv[4:]
        if sep != "--":
            raise SystemExit("usage: worker.py spanned|plain ID OUT -- ARGS")
        result = (_spanned(answer, cli_args) if mode == "spanned"
                  else _plain(cli_args))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
