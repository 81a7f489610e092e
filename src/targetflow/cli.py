"""Command-line surface: gen, solve, verify, sweep, matching.

Exit codes: 0 ok, 1 file/parse error, 2 invalid input semantics,
3 numeric failure.  ``solve`` writes its report by hand, byte for byte
what ``json.dumps(report, indent=2)`` writes; ``verify`` and ``sweep``
use ``json``.
"""

import argparse
import json
import sys
from itertools import chain, islice

import numpy as np

from . import certify
from .cover import DriverAllocation, allocate_drivers, solve
from .experiments import sweep, sweep_to_csv, sweep_to_json
from .flow import _distinct
from .graph import (_label_ids, _parse_edges, _read_labels,
                    format_edge_list, generate_er, generate_sf)
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


def _read(path, what, reader):
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return reader(fh)
    except (OSError, ValueError) as exc:  # a UnicodeDecodeError is a ValueError
        raise _InputError(EXIT_PARSE, f"cannot read {what} {path}: {exc}") from exc


def _load(args):
    """The graph, its labels by id and the sorted distinct target ids."""
    g, names = _read(args.graph, "graph", _parse_edges)
    found = _read(args.targets, "targets", lambda fh: _read_labels(fh, 1))
    members = _distinct(_label_ids(names, found, "target"))
    if not members.size:
        raise _InputError(EXIT_INVALID, "target set is empty")
    return g, names, members


def _generate(kind, args):
    if kind == "er":
        return generate_er(args.n, args.mu, args.seed)
    return generate_sf(args.n, args.mu, args.gamma, args.seed)


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args):
    _emit(format_edge_list(_generate(args.kind, args)), args.out)
    return EXIT_OK


def _rows(rows):
    """Non-empty rows of integers as ``json.dumps(indent=2)`` lays them out
    one level in."""
    body = ",\n".join(["    [\n      " + ",\n      ".join(map(str, row))
                       + "\n    ]" for row in rows])
    return f"[\n{body}\n  ]" if body else "[]"


def _cmd_solve(args):
    g, names, members = _load(args)
    sol = solve(g, members)
    paths, cycles = sol.cover.paths, sol.cover.cycles
    drivers, nodes = zip(*allocate_drivers(sol.cover).attachments)
    # the labels of the nodes printed, in print order, by one gather
    label = iter(names[np.fromiter(chain(*paths, *cycles, nodes), int)].tolist())
    _emit(f'{{\n  "min_drivers": {sol.min_drivers},\n'
          f'  "paths": {_rows(islice(label, len(p)) for p in paths)},\n'
          f'  "cycles": {_rows(islice(label, len(c)) for c in cycles)},\n'
          f'  "attachments": {_rows(zip(drivers, label))},\n'
          f'  "flow_value": {sol.flow_value}\n}}\n', args.out)
    return EXIT_OK


def _cmd_matching(args):
    g, _ = _read(args.graph, "graph", _parse_edges)
    _emit(f"{driver_count(g)}\n", args.out)
    return EXIT_OK


def _cmd_verify(args):
    if not 0 < args.tf < np.inf:  # before the rank test, which ignores it
        raise ValueError("t_f must be positive and finite")
    g, names, members = _load(args)
    if args.attach:  # Python ints: int64 beside uint64 compares as float
        found = np.array([*map(int, args.attach.split(","))], object)
        nodes = _label_ids(names, found, "attachment").tolist()
        alloc = DriverAllocation(len(nodes), tuple(enumerate(nodes)))
    else:
        alloc = allocate_drivers(solve(g, members).cover)
    att = np.array(alloc.attachments)
    sysm = certify.realize_system(g, members, alloc, args.seed)
    rank = certify.kalman_target_rank(sysm)
    report = {
        "targets": len(members),
        "drivers": alloc.driver_count,
        "attachments": np.column_stack((att[:, 0], names[att[:, 1]])).tolist(),
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
        steps = certify.DESIGN_STEPS
        try:  # design_input and simulate, on one step triple
            step = certify._foh(sysm, args.tf, steps)
            u = certify._design_input(sysm, x0, steps, *step)
            states, y_f = certify._simulate(sysm, u, x0, args.tf, steps, *step)
        except (certify.NotNumericallyControllable, FloatingPointError) as exc:
            raise _InputError(EXIT_NUMERIC, str(exc)) from exc
        report["y_norm"] = float(np.linalg.norm(y_f))
        report["passed"] = report["y_norm"] <= Y_TOLERANCE
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    if args.out and report["controllable"]:  # the report stands if this fails
        t = np.linspace(0.0, args.tf, states.shape[0])
        with open(args.out, "w", encoding="utf-8") as fh:
            certify.write_trajectory_csv(fh, t, states @ sysm.C.T)
    return EXIT_OK


def _cmd_sweep(args):
    if args.graph:
        g, _ = _read(args.graph, "graph", _parse_edges)
    elif args.gen:
        g = _generate(args.gen, args)
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
    except (_InputError, OSError, ValueError) as exc:  # OSError: writing --out
        print(f"error: {exc}", file=sys.stderr)
        return (exc.code if isinstance(exc, _InputError) else
                EXIT_PARSE if isinstance(exc, OSError) else EXIT_INVALID)


if __name__ == "__main__":
    sys.exit(main())
