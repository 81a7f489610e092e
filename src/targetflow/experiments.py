"""Target-fraction sweep: driver demand of random target subsets.

For each fraction f, ``trials`` uniform-random target sets of size
``round(f * n)`` (at least one node) are drawn and the mean driver count
is normalized by the whole-network driver count, giving the ratio curve
that tends to sit near f for homogeneous random networks.  One certified
maximum flow, on the union of their target networks, serves each batch of
trials, bounded by arcs.
"""

import json
import math
import random
from dataclasses import dataclass
from numbers import Integral

from .cover import build_target_network
from .flow import max_flow_dinic
from .graph import DiGraph
from .matching import driver_count

CSV_HEADER = "f,trials,mean_nD,ratio,std"
_BATCH_ARCS = 12_000  # per batch of trials; a trial over it runs alone


@dataclass(frozen=True)
class SweepRow:
    f: float
    trials: int
    mean_nd: float
    ratio: float
    std: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    full_driver_count: int


def sweep(g: DiGraph, fractions, trials: int, seed: int) -> SweepResult:
    """Run the fraction sweep; deterministic per seed.

    Rows come out sorted by fraction, and trials are consumed in
    (fraction, trial-index) order, so a fixed seed reproduces results
    byte for byte.
    """
    if not isinstance(trials, Integral) or trials < 1:
        raise ValueError(f"trials must be a positive integer, not {trials!r}")
    fracs = sorted(float(f) for f in fractions)
    if not fracs or not all(0 < f <= 1 for f in fracs):
        raise ValueError("fractions must lie in (0, 1]")
    if g.n == 0:
        raise ValueError("graph has no nodes")
    nd_full = driver_count(g)
    rng = random.Random(seed)
    rows = []
    for f in fracs:
        size = max(1, round(f * g.n))
        batch = max(1, _BATCH_ARCS // (g.n + size + g.tail.size))
        counts = []
        for start in range(0, trials, batch):
            tnet = build_target_network(g, *(
                rng.sample(range(g.n), size)
                for _ in range(min(batch, trials - start))))
            fa = max_flow_dinic(tnet.net)
            # each trial's own maximum flow, on its arcs from the injector
            flows = fa.flow[tnet.net.tail == tnet.net.source].reshape(-1, size)
            counts += [max(size - v, 1) for v in flows.sum(axis=1).tolist()]
        if max(counts) > nd_full:
            raise AssertionError(f"subset driver count {max(counts)} exceeds "
                                 f"whole-network count {nd_full}")
        ratios = [c / nd_full for c in counts]
        mean_ratio = sum(ratios) / trials
        std = math.sqrt(sum((r - mean_ratio) ** 2 for r in ratios) / trials)
        rows.append(SweepRow(f, trials, sum(counts) / trials, mean_ratio, std))
    return SweepResult(tuple(rows), nd_full)


def sweep_to_csv(result: SweepResult) -> str:
    lines = [CSV_HEADER]
    for r in result.rows:
        lines.append(f"{r.f:.6g},{r.trials},{r.mean_nd:.6g},"
                     f"{r.ratio:.6g},{r.std:.6g}")
    return "\n".join(lines) + "\n"


def sweep_to_json(result: SweepResult) -> str:
    rows = [{"f": float(f"{r.f:.6g}"), "trials": r.trials,
             "mean_nD": float(f"{r.mean_nd:.6g}"),
             "ratio": float(f"{r.ratio:.6g}"),
             "std": float(f"{r.std:.6g}")} for r in result.rows]
    return json.dumps({"N_D": result.full_driver_count, "rows": rows},
                      indent=2) + "\n"
