import json
import random

import pytest

import targetflow.experiments
from targetflow import (DiGraph, generate_er, generate_sf, sweep,
                        sweep_to_csv, sweep_to_json)

from reference import per_trial_sweep


@pytest.fixture(scope="module")
def small_er():
    return generate_er(120, 3.0, seed=9)


def test_full_fraction_ratio_is_exactly_one(small_er):
    res = sweep(small_er, [1.0], trials=3, seed=0)
    assert res.rows[0].ratio == 1.0
    assert res.rows[0].std == 0.0


def test_rows_sorted_and_sized(small_er):
    res = sweep(small_er, [0.5, 0.1, 1.0], trials=2, seed=1)
    assert [r.f for r in res.rows] == [0.1, 0.5, 1.0]
    assert all(r.trials == 2 for r in res.rows)


def test_seed_reproducibility_bytes(small_er):
    a = sweep_to_csv(sweep(small_er, [0.2, 0.6], trials=4, seed=5))
    b = sweep_to_csv(sweep(small_er, [0.2, 0.6], trials=4, seed=5))
    assert a == b
    c = sweep_to_csv(sweep(small_er, [0.2, 0.6], trials=4, seed=6))
    assert a != c


def test_csv_shape_and_ratio_column(small_er):
    res = sweep(small_er, [0.3, 1.0], trials=3, seed=2)
    lines = sweep_to_csv(res).splitlines()
    assert lines[0] == "f,trials,mean_nD,ratio,std"
    for line, row in zip(lines[1:], res.rows):
        f, trials, mean_nd, ratio, std = line.split(",")
        assert float(f) == row.f
        assert int(trials) == row.trials
        assert float(ratio) == pytest.approx(
            float(mean_nd) / res.full_driver_count, rel=1e-4)


def test_json_round_trips(small_er):
    res = sweep(small_er, [0.4], trials=2, seed=3)
    doc = json.loads(sweep_to_json(res))
    assert doc["N_D"] == res.full_driver_count
    assert doc["rows"][0]["f"] == 0.4
    assert set(doc["rows"][0]) == {"f", "trials", "mean_nD", "ratio", "std"}


def test_fraction_bounds_rejected(small_er):
    with pytest.raises(ValueError):
        sweep(small_er, [0.0, 0.5], trials=1, seed=0)
    with pytest.raises(ValueError):
        sweep(small_er, [1.5], trials=1, seed=0)
    with pytest.raises(ValueError):
        sweep(small_er, [0.5], trials=0, seed=0)
    with pytest.raises(ValueError, match="trials must be a positive integer"):
        sweep(small_er, [0.5], trials=2.0, seed=0)
    for fracs in ([0.5, float("nan")], [float("nan"), 0.5]):
        with pytest.raises(ValueError, match=r"lie in \(0, 1\]"):
            sweep(small_er, fracs, trials=1, seed=0)


def test_tiny_fraction_still_samples_one_node():
    g = DiGraph(4, [(0, 1), (1, 2), (2, 3)])
    res = sweep(g, [0.01], trials=2, seed=0)
    assert res.rows[0].mean_nd >= 1.0


def _count_batches(monkeypatch):
    """The number of target sets in each network the sweep builds."""
    batches = []
    build = targetflow.experiments.build_target_network

    def spy(g, *sets):
        batches.append(len(sets))
        return build(g, *sets)

    monkeypatch.setattr(targetflow.experiments, "build_target_network", spy)
    return batches


# small random ER and SF graphs, at the arc bound and at bounds that hold
# one to a few trials, so that 7 trials leave a partial batch
def test_batches_match_per_trial_reference(monkeypatch):
    batches = _count_batches(monkeypatch)
    default = targetflow.experiments._BATCH_ARCS
    rng = random.Random(25)
    for case in range(36):
        n = rng.randint(2, 80)
        g = (generate_er(n, rng.choice([1.0, 2.0, 3.0]), case) if case % 2
             else generate_sf(n, rng.choice([2.0, 3.0]), 2.5, case))
        bound = (default if case % 3 == 0
                 else rng.randint(g.n, 4 * (2 * g.n + g.tail.size)))
        monkeypatch.setattr(targetflow.experiments, "_BATCH_ARCS", bound)
        fractions = rng.sample([0.05, 0.2, 0.5, 0.8, 1.0], 3)
        seed = rng.randrange(1000)
        assert sweep_to_csv(sweep(g, fractions, 7, seed)) == \
            per_trial_sweep(g, fractions, 7, seed)
    assert {1, 7} <= set(batches) and set(batches) & {2, 3, 4, 5, 6}


def test_trial_over_the_arc_bound_runs_alone(monkeypatch):
    g = generate_er(6000, 3, 4)
    assert g.n + 1 + g.tail.size > targetflow.experiments._BATCH_ARCS
    batches = _count_batches(monkeypatch)
    assert sweep_to_csv(sweep(g, [0.01, 1.0], 3, 8)) == \
        per_trial_sweep(g, [0.01, 1.0], 3, 8)
    assert batches == [1] * 6
