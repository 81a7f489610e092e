import json

import pytest

from targetflow import (DiGraph, generate_er, sweep, sweep_to_csv,
                        sweep_to_json)


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
    for fracs in ([0.5, float("nan")], [float("nan"), 0.5]):
        with pytest.raises(ValueError, match=r"lie in \(0, 1\]"):
            sweep(small_er, fracs, trials=1, seed=0)


def test_tiny_fraction_still_samples_one_node():
    g = DiGraph(4, [(0, 1), (1, 2), (2, 3)])
    res = sweep(g, [0.01], trials=2, seed=0)
    assert res.rows[0].mean_nd >= 1.0
