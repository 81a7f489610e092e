"""Command-line surface: gen, solve, verify, sweep, matching.

Exit codes: 0 ok, 1 file/parse error, 2 invalid input semantics,
3 numeric failure.
"""

import argparse
import json
import sys

import numpy as np

from . import certify
from .cover import DriverAllocation, allocate_drivers, solve
from .experiments import sweep, sweep_to_csv, sweep_to_json
from .graph import (EdgeListError, format_edge_list, generate_er,
                    generate_sf, parse_edge_list)
from .matching import driver_count

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_NUMERIC = 3

Y_TOLERANCE = 1e-3


class _InputError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _load_graph(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_edge_list(fh)
    except (OSError, EdgeListError) as exc:
        raise _InputError(EXIT_PARSE, f"cannot read graph {path}: {exc}") from exc


def _load_targets(path, labels):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise _InputError(EXIT_PARSE, f"cannot read targets {path}: {exc}") from exc
    members = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            lab = int(line)
        except ValueError:
            raise _InputError(EXIT_PARSE,
                              f"targets {path} line {line_no}: not an integer") from None
        if lab not in labels:
            raise _InputError(EXIT_INVALID,
                              f"target label {lab} does not occur in the graph")
        members.append(labels[lab])
    if not members:
        raise _InputError(EXIT_INVALID, "target set is empty")
    return sorted(set(members))


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args):
    if args.kind == "er":
        g = generate_er(args.n, args.mu, args.seed)
    else:
        g = generate_sf(args.n, args.mu, args.gamma, args.seed)
    _emit(format_edge_list(g), args.out)
    return EXIT_OK


def _solution_report(sol, alloc, inv):
    return {
        "min_drivers": sol.min_drivers,
        "paths": [[inv[v] for v in p] for p in sol.cover.paths],
        "cycles": [[inv[v] for v in c] for c in sol.cover.cycles],
        "attachments": [[d, inv[v]] for d, v in alloc.attachments],
        "flow_value": sol.flow_value,
    }


def _cmd_solve(args):
    g, labels = _load_graph(args.graph)
    members = _load_targets(args.targets, labels)
    inv = {i: lab for lab, i in labels.items()}
    sol = solve(g, members)
    alloc = allocate_drivers(sol.cover)
    _emit(json.dumps(_solution_report(sol, alloc, inv), indent=2) + "\n",
          args.out)
    return EXIT_OK


def _cmd_matching(args):
    g, _ = _load_graph(args.graph)
    _emit(f"{driver_count(g)}\n", args.out)
    return EXIT_OK


def _cmd_verify(args):
    g, labels = _load_graph(args.graph)
    members = _load_targets(args.targets, labels)
    inv = {i: lab for lab, i in labels.items()}
    sol = solve(g, members)
    if args.attach:
        nodes = []
        for token in args.attach.split(","):
            lab = int(token)
            if lab not in labels:
                raise _InputError(EXIT_INVALID,
                                  f"attachment label {lab} not in the graph")
            nodes.append(labels[lab])
        alloc = DriverAllocation(len(nodes),
                                 tuple((k, v) for k, v in enumerate(nodes)))
    else:
        alloc = allocate_drivers(sol.cover)
    sysm = certify.realize_system(g, members, alloc, args.seed)
    rank = certify.kalman_target_rank(sysm)
    report = {
        "targets": len(members),
        "drivers": alloc.driver_count,
        "attachments": [[d, inv[v]] for d, v in alloc.attachments],
        "rank": rank,
        "controllable": rank == len(members),
        "t_f": args.tf,
        "tolerance": Y_TOLERANCE,
        "y_norm": None,
        "passed": False,
    }
    if rank == len(members):
        rng = np.random.default_rng(args.seed)
        x0 = rng.normal(size=g.n)
        x0 /= np.linalg.norm(x0)
        try:
            u = certify.design_input(sysm, x0, args.tf)
            states, y_f = certify.simulate(sysm, u, x0, args.tf)
        except (certify.NotNumericallyControllable, FloatingPointError) as exc:
            raise _InputError(EXIT_NUMERIC, str(exc)) from exc
        report["y_norm"] = float(np.linalg.norm(y_f))
        report["passed"] = report["y_norm"] <= Y_TOLERANCE
        if args.out:
            t = np.linspace(0.0, args.tf, states.shape[0])
            with open(args.out, "w", encoding="utf-8") as fh:
                certify.write_trajectory_csv(
                    fh, t, certify.output_trajectory(sysm, states))
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    return EXIT_OK


def _cmd_sweep(args):
    if args.graph:
        g, _ = _load_graph(args.graph)
    elif args.gen == "er":
        g = generate_er(args.n, args.mu, args.seed)
    elif args.gen == "sf":
        g = generate_sf(args.n, args.mu, args.gamma, args.seed)
    else:
        raise _InputError(EXIT_INVALID, "sweep needs --graph or --gen")
    fractions = [float(tok) for tok in args.fractions.split(",")]
    result = sweep(g, fractions, args.trials, args.seed)
    text = sweep_to_json(result) if args.format == "json" else sweep_to_csv(result)
    _emit(text, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="targetflow",
        description="Minimum control sources for target controllability "
                    "of directed networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random graph edge list")
    p.add_argument("kind", choices=["er", "sf"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--gamma", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="minimum target path cover: one driver "
                       "per path head, an upper bound under the rank test")
    p.add_argument("graph")
    p.add_argument("targets")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("matching",
                       help="whole-network driver count via maximum matching")
    p.add_argument("graph")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_matching)

    p = sub.add_parser("verify",
                       help="numerically certify an allocation (Kalman "
                            "target rank, then an input steering the "
                            "targets to the origin)")
    p.add_argument("graph")
    p.add_argument("targets")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tf", type=float, default=3.0)
    p.add_argument("--attach",
                   help="comma-separated node labels overriding the input "
                        "pattern, one driver per node")
    p.add_argument("--out", help="write the output trajectory CSV here")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="driver demand versus target fraction")
    p.add_argument("--graph")
    p.add_argument("--gen", choices=["er", "sf"])
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--mu", type=float, default=3.0)
    p.add_argument("--gamma", type=float, default=3.0)
    p.add_argument("--fractions",
                   default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
