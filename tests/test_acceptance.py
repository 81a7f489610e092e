"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured numbers.  Run with

    pytest tests/test_acceptance.py -s
"""

import random
import time

import numpy as np

from targetflow import (Arc, BoundedFlowNetwork, DiGraph, allocate_drivers,
                        build_circulation_network, design_input, driver_count,
                        feasible_circulation, generate_er, kalman_target_rank,
                        max_flow_dinic, realize_system, simulate, solve,
                        solve_via_circulation, sweep)

from conftest import CANONICAL_EDGES, random_graph, random_targets
from reference import (double_cover_drivers, edmonds_karp_value,
                       min_cover_drivers)


def _line(num, label, verdict, detail=""):
    msg = f"ACCEPTANCE {num} {verdict}: {label}"
    if detail:
        msg += f" ({detail})"
    print(msg, flush=True)


def criterion(num, label):
    """The wrapped body returns its detail note; the wrapper prints the
    verdict line.  The wrapper deliberately takes no parameters so pytest
    does not go looking for fixtures."""
    def deco(fn):
        def wrapper():
            try:
                note = fn()
            except BaseException:
                _line(num, label, "FAIL")
                raise
            _line(num, label, "PASS", note or "")
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper
    return deco


def canonical_instance():
    g = DiGraph(9, [(t - 1, h - 1) for t, h in CANONICAL_EDGES])
    return g, [1, 2, 6, 8]


@criterion(1, "canonical 9-node instance solved exactly, under 1 ms")
def test_criterion_1_canonical():
    g, targets = canonical_instance()
    sol = solve(g, targets)
    assert sol.min_drivers == 1
    assert sol.flow_value == 3
    assert [[v + 1 for v in p] for p in sol.cover.paths] == [[9, 7]]
    assert [[v + 1 for v in c] for c in sol.cover.cycles] == [[2, 3, 6]]
    alloc = allocate_drivers(sol.cover)
    assert alloc.driver_count == 1
    assert {(d, v + 1) for d, v in alloc.attachments} == {(0, 9), (0, 2)}
    best = min(_timed(lambda: solve(g, targets)) for _ in range(20))
    assert best < 1e-3
    return f"best of 20 runs {best * 1e6:.0f} us"


@criterion(2, "driver count equals exhaustive path-cover minimum on 2000 "
              "random instances (n<=7, |E|<=10)")
def test_criterion_2_exhaustive_oracle():
    rng = random.Random(20240001)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(2000):
        g = random_graph(rng, 7, 10)
        targets = random_targets(rng, g.n)
        if solve(g, targets).min_drivers != min_cover_drivers(g, targets):
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 60
    return f"{mismatches} mismatches, {elapsed:.1f}s"


@criterion(3, "direct and circulation routes agree on 500 random instances "
              "(n<=12)")
def test_criterion_3_dual_route():
    rng = random.Random(20240002)
    mismatches = 0
    for _ in range(500):
        g = random_graph(rng, 12, 24)
        targets = random_targets(rng, g.n)
        if solve(g, targets).min_drivers != \
                solve_via_circulation(g, targets).min_drivers:
            mismatches += 1
    assert mismatches == 0
    return f"{mismatches} mismatches"


@criterion(4, "all-nodes target set and the matching-based driver count "
              "match an augmenting-path matching on 500 random graphs "
              "(n<=50)")
def test_criterion_4_full_set_consistency():
    rng = random.Random(20240003)
    mismatches = 0
    for _ in range(500):
        g = random_graph(rng, 50, 120)
        want = double_cover_drivers(g)
        if (solve(g, range(g.n)).min_drivers != want
                or driver_count(g) != want):
            mismatches += 1
    assert mismatches == 0
    return f"{mismatches} mismatches"


@criterion(5, "Dinic value equals augmenting-path oracle on 200 random "
              "bounded networks (n<=12, caps<=3)")
def test_criterion_5_max_flow_oracle():
    rng = random.Random(20240004)
    mismatches = 0
    for _ in range(200):
        n = rng.randint(2, 12)
        s, t = 0, n - 1
        arcs = []
        for _ in range(rng.randint(1, 3 * n)):
            a, b = rng.randrange(n), rng.randrange(n)
            if a == b or b == s or a == t:
                continue
            arcs.append(Arc(a, b, 0, rng.randint(1, 3)))
        if not arcs:
            arcs = [Arc(s, t, 0, 1)]
        net = BoundedFlowNetwork(n, tuple(arcs), s, t)
        ref = edmonds_karp_value(n, [(a.tail, a.head, a.cap) for a in net.arcs],
                                 s, t)
        if max_flow_dinic(net).value != ref:
            mismatches += 1
    assert mismatches == 0
    return f"{mismatches} mismatches"


@criterion(6, "bounded network of every random instance admits a feasible "
              "circulation (200/200)")
def test_criterion_6_circulation_exists():
    rng = random.Random(20240005)
    feasible = 0
    for _ in range(200):
        g = random_graph(rng, 12, 24)
        targets = random_targets(rng, g.n)
        cnet = build_circulation_network(g, targets)
        if feasible_circulation(cnet.net) is not None:
            feasible += 1
    assert feasible == 200
    return f"{feasible}/200 feasible"


@criterion(7, "numeric certification: rank 4 on >=99/100 seeds and "
              "||y(t_f)||_2 <= 1e-3, under 5 s")
def test_criterion_7_certification():
    start = time.perf_counter()
    g, targets = canonical_instance()
    alloc = allocate_drivers(solve(g, targets).cover)
    full_rank = sum(
        kalman_target_rank(realize_system(g, targets, alloc, seed=s)) == 4
        for s in range(100))
    sysm = realize_system(g, targets, alloc, seed=12345)
    rng = np.random.default_rng(99)
    x0 = rng.normal(size=9)
    x0 /= np.linalg.norm(x0)
    u = design_input(sysm, x0, 3.0)
    _, y_f = simulate(sysm, u, x0, 3.0)
    y_norm = float(np.linalg.norm(y_f))
    elapsed = time.perf_counter() - start
    assert full_rank >= 99
    assert y_norm <= 1e-3
    assert elapsed < 5
    return f"rank ok {full_rank}/100, ||y(3)||={y_norm:.2e}, {elapsed:.1f}s"


@criterion(8, "uniform random network, 1000 nodes: driver-demand ratio "
              "within 0.15 of the target fraction, exact at f=1, "
              "non-decreasing, under 2 min")
def test_criterion_8_fraction_sweep():
    start = time.perf_counter()
    g = generate_er(1000, 3.0, seed=1)
    fractions = [round(0.1 * k, 1) for k in range(1, 11)]
    result = sweep(g, fractions, trials=20, seed=42)
    elapsed = time.perf_counter() - start
    ratios = [r.ratio for r in result.rows]
    worst = max(abs(r.ratio - r.f) for r in result.rows)
    for row in result.rows:
        assert abs(row.ratio - row.f) <= 0.15
    assert result.rows[-1].f == 1.0 and result.rows[-1].ratio == 1.0
    for a, b in zip(ratios, ratios[1:]):
        assert b >= a - 0.02
    assert elapsed < 120
    return f"max |ratio-f|={worst:.3f}, {elapsed:.1f}s"


@criterion(9, "100k-node uniform random network solved under 10 s, "
              "subquadratic growth from 10k")
def test_criterion_9_scaling():
    frac = 0.1
    times = {}
    for n, seed in ((10 ** 4, 7), (10 ** 5, 8)):
        g = generate_er(n, 3.0, seed=seed)
        rng = random.Random(seed)
        targets = sorted(rng.sample(range(n), round(frac * n)))
        times[n] = _timed(lambda: solve(g, targets))
    ratio = times[10 ** 5] / times[10 ** 4]
    assert times[10 ** 5] < 10
    assert ratio < 100  # quadratic would be x100
    return (f"t(1e4)={times[10 ** 4]:.2f}s, t(1e5)={times[10 ** 5]:.2f}s, "
            f"growth x{ratio:.1f}")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
