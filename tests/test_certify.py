import collections
import contextlib
import hashlib
import io
import json
import random
import warnings

import numpy as np
import pytest

from conftest import random_graph, random_targets
from reference import (full_basis_target_rank, per_sample_gramian,
                       qr_design_input, rk4_response)
from targetflow import (DiGraph, DriverAllocation, LtiSystem,
                        NotNumericallyControllable, allocate_drivers, certify,
                        controllability_gramian, design_input, expm,
                        format_edge_list, generate_er, kalman_target_rank,
                        parse_edge_list, realize_system, simulate, solve)
from targetflow.certify import write_trajectory_csv
from targetflow.cli import main


@pytest.fixture
def canonical_system(canonical):
    g, targets = canonical
    alloc = allocate_drivers(solve(g, targets).cover)
    return g, targets, alloc


class TestRealize:
    def test_single_self_loop(self):
        g = DiGraph(1, [(0, 0)])
        sys = realize_system(g, [0], DriverAllocation(1, ((0, 0),)), seed=3)
        assert sys.A.shape == (1, 1)
        assert 0.5 <= sys.A[0, 0] <= 1.5
        assert sys.B.tolist() == [[1.0]]
        assert sys.C.tolist() == [[1.0]]

    def test_canonical_input_pattern(self, canonical_system):
        g, targets, alloc = canonical_system
        sys = realize_system(g, targets, alloc, seed=0)
        # single column with ones exactly at nodes 2 and 9 (1-based)
        assert sys.B.shape == (9, 1)
        assert np.flatnonzero(sys.B[:, 0]).tolist() == [1, 8]
        # weights sit on the transposed edge pattern, bounded away from 0
        nz = sys.A[sys.A != 0]
        assert ((nz >= 0.5) & (nz <= 1.5)).all()
        assert {(j, i) for i, j in zip(*np.nonzero(sys.A))} == set(g.edges)

    def test_seed_determinism(self, canonical_system):
        g, targets, alloc = canonical_system
        a = realize_system(g, targets, alloc, seed=11)
        b = realize_system(g, targets, alloc, seed=11)
        assert np.array_equal(a.A, b.A)

    def test_out_of_range_attachment(self):
        g = DiGraph(2, [(0, 1)])
        with pytest.raises(ValueError, match="out of range"):
            realize_system(g, [1], DriverAllocation(1, ((0, 5),)), seed=0)

    def test_non_integer_targets_rejected(self):
        # 1.7 and 2.2 must not truncate to the targets (1, 2)
        g = DiGraph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="integers"):
            realize_system(g, [1.7, 2.2], DriverAllocation(1, ((0, 0),)),
                           seed=0)

    def test_non_integer_attachment_rejected(self):
        g = DiGraph(3, [(0, 1), (1, 2)])
        for pair in ((0, 1.0), (0.0, 1), (0, "1")):
            with pytest.raises(ValueError, match="integers"):
                realize_system(g, [2], DriverAllocation(1, (pair,)), seed=0)
        pair = (np.int32(0), np.int64(1))
        sys = realize_system(g, [np.int64(2)], DriverAllocation(1, (pair,)),
                             seed=0)
        assert np.flatnonzero(sys.B[:, 0]).tolist() == [1]


    def test_weights_in_edge_order_without_edge_tuples(self):
        g = generate_er(400, 3, 7)
        sys = realize_system(g, [0], DriverAllocation(1, ((0, 0),)), seed=7)
        assert "edges" not in g.__dict__
        rng = np.random.default_rng(7)
        A = np.zeros((g.n, g.n))
        for t, h in zip(g.tail.tolist(), g.head.tolist()):
            A[h, t] = rng.uniform(0.5, 1.5)
        assert np.array_equal(sys.A, A)


def _one_node_system():
    """x' = -x + u, y = x on one node."""
    return LtiSystem([[-1.0]], [[1.0]], [[1.0]], [0])


@pytest.mark.parametrize("make, message", [
    (lambda: LtiSystem(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 3)),
                       [0]), "A must be square"),
    (lambda: LtiSystem(np.zeros((2, 2)), np.zeros((3, 1)), np.zeros((1, 2)),
                       [0]), "B/C dimensions do not match A"),
    (lambda: LtiSystem(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 3)),
                       [0]), "B/C dimensions do not match A"),
    (lambda: LtiSystem([[np.nan]], [[1.0]], [[1.0]], [0]),
     "matrix entries must be finite"),
    (lambda: LtiSystem([[0.0]], [[np.inf]], [[1.0]], [0]),
     "matrix entries must be finite"),
    (lambda: realize_system(DiGraph(2, [(0, 1)]), [1],
                            DriverAllocation(1, ((1, 0),)), seed=0),
     "driver index 1 out of range for n=1"),
    (lambda: realize_system(DiGraph(2, [(0, 1)]), [1],
                            DriverAllocation(1, ((0, 1), (0, 5))), seed=0),
     "attachment node 5 out of range for n=2"),
    (lambda: design_input(_one_node_system(), [1.0], 0.0),
     "t_f must be positive and finite"),
    (lambda: design_input(_one_node_system(), [1.0], np.inf),
     "t_f must be positive and finite"),
    (lambda: design_input(_one_node_system(), [1.0], 1.0, steps=0),
     "steps must be at least 1"),
    (lambda: simulate(_one_node_system(), np.zeros((3, 1)), [1.0], -1.0, 2),
     "t_f must be positive and finite"),
    (lambda: simulate(_one_node_system(), np.zeros((3, 1)), [1.0], 1.0, 0),
     "steps must be at least 1"),
    (lambda: expm([[0.0, np.nan], [0.0, 0.0]]),
     "matrix entries must be finite"),
], ids=["A-not-square", "B-rows", "C-columns", "A-nan", "B-inf",
        "driver-index", "attachment-node", "design-t_f-zero",
        "design-t_f-inf", "design-steps", "simulate-t_f", "simulate-steps",
        "expm-nan"])
def test_bad_input_rejected(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


class TestCoverCountIsUpperBound:
    """The cover count is the minimum target path cover.  The rank test
    can pass with fewer inputs: one input steers the targets it reaches at
    distinct distances."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_one_input_on_two_nodes(self, seed):
        # B = e0 + e2 and AB = a e1 span both targets
        g, targets = DiGraph(3, [(2, 1)]), [0, 1]
        assert solve(g, targets).min_drivers == 2
        sys = realize_system(g, targets, DriverAllocation(1, ((0, 0), (0, 2))),
                             seed=seed)
        assert kalman_target_rank(sys) == 2

    @pytest.mark.parametrize("seed", [0, 1])
    def test_three_single_node_inputs_under_four_paths(self, seed):
        # node 1 reaches targets 1, 0 and 2 at distances 0, 1 and 2
        g = DiGraph(6, [(1, 0), (1, 4), (4, 2)])
        targets = [0, 1, 2, 3, 5]
        sol = solve(g, targets)
        assert sol.min_drivers == 4
        for alloc in (DriverAllocation(3, ((0, 1), (1, 3), (2, 5))),
                      allocate_drivers(sol.cover)):
            sys = realize_system(g, targets, alloc, seed=seed)
            assert kalman_target_rank(sys) == 5


class TestKalmanRank:
    def test_scalar_integrator(self):
        sys = LtiSystem(np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)), [0])
        assert kalman_target_rank(sys) == 1

    def test_canonical_rank_over_seeds(self, canonical_system):
        g, targets, alloc = canonical_system
        hits = sum(
            kalman_target_rank(realize_system(g, targets, alloc, seed=s)) == 4
            for s in range(100))
        assert hits >= 99

    def test_adversarial_single_attachment_deficient(self, canonical_system):
        # node 7 only reaches node 4, so most targets stay dark
        g, targets, _ = canonical_system
        bad = DriverAllocation(1, ((0, 6),))
        ranks = [kalman_target_rank(realize_system(g, targets, bad, seed=s))
                 for s in range(10)]
        assert all(r < 4 for r in ranks)

    def test_rank_invariant_under_input_scaling(self, canonical_system):
        g, targets, alloc = canonical_system
        sys = realize_system(g, targets, alloc, seed=5)
        scaled = LtiSystem(sys.A, 37.0 * sys.B, sys.C, sys.targets)
        assert kalman_target_rank(scaled) == kalman_target_rank(sys)

    def test_generic_rank_across_random_instances(self):
        import random

        from conftest import random_graph, random_targets
        rng = random.Random(61)
        for _ in range(30):
            g = random_graph(rng, 8, 14)
            targets = random_targets(rng, g.n)
            alloc = allocate_drivers(solve(g, targets).cover)
            sys = realize_system(g, targets, alloc, seed=rng.randrange(10000))
            assert kalman_target_rank(sys) == len(set(targets))

    def test_unreached_target_lowers_rank_without_overflow(self):
        # A^k B overflows float64 long before k = 500, so a rank taken from
        # the raw powers sees inf and NaN columns.  No driver reaches the
        # isolated node 500, so the rank is 3 of 4.
        g = DiGraph(501, generate_er(500, 12, 0).edges)
        sys = realize_system(g, [0, 1, 2, 500], DriverAllocation(1, ((0, 0),)),
                             seed=0)
        assert kalman_target_rank(sys) == 3

    def test_target_without_in_edges_has_rank_zero(self):
        # no edge enters target 1, but the factorization of the first block
        # leaves rounding in its leading rows (nodes 0-2), which A would
        # carry on to a full direction unless Q keeps those rows at zero
        g = generate_er(14, 1.5, 649373)
        sys = realize_system(g, [1], DriverAllocation(3, ((0, 8), (1, 9),
                                                          (2, 13))), seed=2115)
        assert 1 not in _reachable(g, [8, 9, 13])
        assert kalman_target_rank(sys) == 0

    def test_mid_size_graph_reaches_full_rank(self):
        # the instance of CLI verify on ER n = 2000 with 12 targets and
        # seed 3, where the raw power A^1867 B overflows float64
        g = generate_er(2000, 3, 1)
        labels = sorted({v for e in g.edges for v in e})
        g, targets = _as_cli_parses(g, random.Random(5).sample(labels, 12))
        alloc = allocate_drivers(solve(g, targets).cover)
        sys = realize_system(g, targets, alloc, seed=3)
        reached = _reachable(g, [v for _, v in alloc.attachments])
        assert kalman_target_rank(sys) == 12 <= len(reached & set(targets))

    def test_single_attachment_rank_within_reach(self):
        # one driver on verify-er80-shaped instances: the rank never counts
        # a target that the driver cannot reach
        for seed in range(1, 21):
            for k in range(2):
                graph_seed, target_seed, program_seed = _er80_seeds(seed, k)
                g, targets = _er80_instance(graph_seed, target_seed)
                alloc = allocate_drivers(solve(g, targets).cover)
                node = alloc.attachments[0][1]
                sys = realize_system(g, targets,
                                     DriverAllocation(1, ((0, node),)),
                                     seed=program_seed)
                reached = _reachable(g, [node])
                assert kalman_target_rank(sys) <= len(reached & set(targets))

    def test_matches_full_basis_reference(self):
        # selector C from random allocations, dense C with a repeated row
        # and A and B scaled far from one; both full and deficient ranks
        rng, np_rng = random.Random(2024), np.random.default_rng(2024)
        full = deficient = 0
        for _ in range(100):
            g = random_graph(rng, 12, 30)
            targets = random_targets(rng, g.n)
            drivers = rng.randint(1, 3)
            alloc = DriverAllocation(drivers, tuple(
                (rng.randrange(drivers), rng.randrange(g.n))
                for _ in range(rng.randint(drivers, 2 * drivers))))
            sys = realize_system(g, targets, alloc, seed=rng.randrange(10000))
            dense = np_rng.normal(size=(rng.randint(1, g.n), g.n))
            dense[-1] = dense[0]  # a repeated row when it has two or more
            scale_a = 10.0 ** rng.choice([-3, 3])
            scale_b = 10.0 ** rng.choice([-3, 3])
            for case in (sys,
                         LtiSystem(sys.A, sys.B, dense, range(len(dense))),
                         LtiSystem(scale_a * sys.A, scale_b * sys.B, sys.C,
                                   sys.targets)):
                rank = kalman_target_rank(case)
                assert rank == full_basis_target_rank(case)
                full += rank == case.C.shape[0]
                deficient += rank < case.C.shape[0]
        assert min(full, deficient) >= 50

    def test_basis_stops_at_full_rank(self, canonical_system):
        # every target has its own driver, so C Q has full rank on the
        # first block and the basis needs no product with A
        g, targets, _ = canonical_system
        alloc = DriverAllocation(4, tuple(enumerate(targets)))
        sys = realize_system(g, targets, alloc, seed=0)
        sys.A = sys.A.view(_CountingProducts)
        _CountingProducts.products = 0
        assert kalman_target_rank(sys) == 4
        assert _CountingProducts.products == 0


class _CountingProducts(np.ndarray):
    """An array that counts its left matrix products."""

    products = 0

    def __matmul__(self, other):
        type(self).products += 1
        return np.asarray(self) @ other


class TestExpm:
    def test_zero_matrix(self):
        assert np.allclose(expm(np.zeros((3, 3))), np.eye(3))

    def test_empty_matrix_is_empty_identity(self):
        got = expm(np.zeros((0, 0)))
        assert got.shape == (0, 0) and got.dtype == float

    def test_known_scalar(self):
        assert np.isclose(expm(np.array([[2.0]]))[0, 0], np.e ** 2)

    def test_inverse_pairing(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(6, 6))
        assert np.allclose(expm(m) @ expm(-m), np.eye(6), atol=1e-9)


class TestGramian:
    def test_zero_dynamics_scalar(self):
        sys = LtiSystem(np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)), [0])
        w = controllability_gramian(sys, 1.0, 10)
        assert np.isclose(w[0, 0], 1.0)

    def test_constant_integrand(self):
        sys = LtiSystem(np.zeros((2, 2)), np.array([[1.0], [0.0]]),
                        np.eye(2), [0, 1])
        w = controllability_gramian(sys, 2.0, 10)
        assert np.allclose(w, [[2.0, 0.0], [0.0, 0.0]])

    def test_quadrature_self_convergence(self, canonical_system):
        g, targets, alloc = canonical_system
        sys = realize_system(g, targets, alloc, seed=1)
        w1 = controllability_gramian(sys, 3.0, 2000)
        w2 = controllability_gramian(sys, 3.0, 4000)
        assert np.abs(w1 - w2).max() / np.abs(w2).max() < 1e-6

    def test_symmetric_psd(self, canonical_system):
        g, targets, alloc = canonical_system
        sys = realize_system(g, targets, alloc, seed=2)
        w = controllability_gramian(sys, 3.0, 400)
        assert np.abs(w - w.T).max() <= 1e-10 * np.abs(w).max()
        eig = np.linalg.eigvalsh((w + w.T) / 2)
        assert eig.min() >= -1e-10 * np.trace(w)

    def test_parameter_guards(self, canonical_system):
        g, targets, alloc = canonical_system
        sys = realize_system(g, targets, alloc, seed=0)
        for t_f in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                controllability_gramian(sys, t_f, 10)
        with pytest.raises(ValueError):
            controllability_gramian(sys, 1.0, 11)


def _seed_314_systems(count):
    """The first ``count`` rank-full systems drawn from the seed-314 random
    graphs and targets, each with a unit-norm initial state."""
    rng = random.Random(314)
    np_rng = np.random.default_rng(314)
    found = []
    while len(found) < count:
        g = random_graph(rng, 12, 22)
        targets = random_targets(rng, g.n)
        alloc = allocate_drivers(solve(g, targets).cover)
        sys = realize_system(g, targets, alloc, seed=len(found))
        if kalman_target_rank(sys) != len(set(targets)):
            continue
        x0 = np_rng.normal(size=g.n)
        found.append((sys, x0 / np.linalg.norm(x0)))
    return found


class TestDesignAndSimulate:
    def test_zero_start_means_zero_input(self, canonical_system):
        g, targets, alloc = canonical_system
        sys = realize_system(g, targets, alloc, seed=3)
        u = design_input(sys, np.zeros(9), 3.0, 200)
        assert np.abs(u).max() == 0.0

    def test_input_linear_in_x0(self, canonical_system):
        g, targets, alloc = canonical_system
        sys = realize_system(g, targets, alloc, seed=3)
        x0 = np.random.default_rng(1).normal(size=9)
        u1 = design_input(sys, x0, 3.0, 200)
        u2 = design_input(sys, 2.0 * x0, 3.0, 200)
        assert np.allclose(u2, 2.0 * u1)

    def test_free_drift_with_zero_dynamics(self):
        sys = LtiSystem(np.zeros((2, 2)), np.zeros((2, 1)), np.eye(2), [0, 1])
        x0 = np.array([1.5, -0.5])
        states, y = simulate(sys, np.zeros((3, 1)), x0, 1.0, 100)
        assert np.allclose(states[-1], x0)
        assert np.allclose(y, x0)

    def test_one_dimensional_input_samples(self):
        # a flat vector of samples means one input channel
        sys = LtiSystem(np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)), [0])
        states, y = simulate(sys, np.ones(5), np.zeros(1), 2.0, 40)
        assert np.isclose(y[0], 2.0)  # integral of a constant unit input

    def test_canonical_output_reaches_origin(self, canonical_system):
        g, targets, alloc = canonical_system
        sys = realize_system(g, targets, alloc, seed=12345)
        rng = np.random.default_rng(99)
        x0 = rng.normal(size=9)
        x0 /= np.linalg.norm(x0)
        u = design_input(sys, x0, 3.0)
        states, y = simulate(sys, u, x0, 3.0)
        assert np.linalg.norm(y) <= 1e-3

    def test_halving_step_barely_moves_answer(self, canonical_system):
        g, targets, alloc = canonical_system
        sys = realize_system(g, targets, alloc, seed=4)
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=9)
        x0 /= np.linalg.norm(x0)
        # every grid refines the sample grid, so each response is exact
        u = design_input(sys, x0, 3.0, 500)
        ys = [simulate(sys, u, x0, 3.0, steps)[1] for steps in (500, 1000, 2000)]
        assert np.linalg.norm(ys[0] - ys[1]) < 1e-9
        assert np.linalg.norm(ys[0] - ys[2]) < 1e-9

    def test_random_fixtures_steered_to_tolerance(self):
        for sys, x0 in _seed_314_systems(5):
            u = design_input(sys, x0, 2.0, 2000)
            _, y = simulate(sys, u, x0, 2.0, 1000)
            assert np.linalg.norm(y) <= 1e-3

    def test_uncontrollable_gramian_rejected(self):
        # driver attached to a node that feeds nothing
        g = DiGraph(3, [(0, 1), (1, 2)])
        sys = realize_system(g, [0, 2], DriverAllocation(1, ((0, 2),)), seed=0)
        with pytest.raises(NotNumericallyControllable):
            design_input(sys, np.ones(3), 3.0, 100)

    def test_nearly_dependent_outputs_rejected(self):
        # the second output differs from the first by 1e-14 of x_2, so the
        # map from input samples to outputs has condition number about 3e14
        sys = LtiSystem(np.diag([-1.0, -2.0]), np.eye(2),
                        np.array([[1.0, 0.0], [1.0, 1e-14]]), [0, 1])
        with pytest.raises(NotNumericallyControllable):
            design_input(sys, np.ones(2), 3.0, 100)

    def test_fewer_samples_than_targets_rejected(self):
        # one driver and two samples (steps=1) cannot zero three targets
        g = DiGraph(3, [(0, 1), (1, 2)])
        sys = realize_system(g, [0, 1, 2], DriverAllocation(1, ((0, 0),)),
                             seed=0)
        with pytest.raises(NotNumericallyControllable):
            design_input(sys, np.ones(3), 3.0, 1)

    def test_zero_map_rejected(self):
        sys = LtiSystem(-np.eye(2), np.zeros((2, 1)), np.eye(2), [0, 1])
        with pytest.raises(NotNumericallyControllable):
            design_input(sys, np.ones(2), 3.0, 10)

    # each overflows float64: e^1000, the row-sum norm of finite entries,
    # the map of samples to outputs over 230000 time units, the state past
    # about t = 700
    @pytest.mark.parametrize("call", [
        lambda sys: expm(np.array([[1000.0]])),
        lambda sys: expm(np.full((3, 3), 1e308)),
        lambda sys: design_input(sys, [1.0], 230000.0),
        lambda sys: simulate(sys, np.ones(501), [1.0], 1400.0),
    ], ids=["expm", "expm_norm", "design_input", "simulate"])
    def test_overflow_raises_without_warning(self, call):
        sys = LtiSystem([[1.0]], [[1.0]], [[1.0]], [0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError):
                call(sys)

    def test_trajectory_csv(self, canonical_system, tmp_path):
        g, targets, alloc = canonical_system
        sys = realize_system(g, targets, alloc, seed=0)
        states, _ = simulate(sys, np.zeros((3, 1)), np.ones(9), 1.0, 10)
        y = states @ sys.C.T
        out = tmp_path / "traj.csv"
        with open(out, "w") as fh:
            write_trajectory_csv(fh, np.linspace(0, 1, 11), y)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,y_1,y_2,y_3,y_4"
        assert len(lines) == 12


@pytest.fixture
def reference_cases(canonical_system):
    """(system, x0, t_f, steps): canonical realizations over five seeds and
    the seed-314 random fixtures, on grids short enough for the per-sample
    references."""
    g, targets, alloc = canonical_system
    rng = np.random.default_rng(8)
    cases = [(realize_system(g, targets, alloc, seed=s), rng.normal(size=9),
              3.0, 400) for s in range(5)]
    return cases + [(sys, x0, 2.0, 200) for sys, x0 in _seed_314_systems(5)]


class TestSteppedInputResponse:
    """The Gramian reaches every sample e^{A (t_f - k h)} B by powers of one
    e^{A h}, where the reference takes a fresh exponential per sample; the
    input design takes a single exponential."""

    def test_gramian_matches_per_sample_reference(self, reference_cases):
        for sys, _, t_f, steps in reference_cases:
            w = controllability_gramian(sys, t_f, steps)
            ref = per_sample_gramian(sys, t_f, steps)
            assert np.abs(w - ref).max() <= 1e-9 * np.abs(ref).max()

    def test_design_matches_qr_reference(self, reference_cases):
        for sys, x0, t_f, steps in reference_cases:
            u = design_input(sys, x0, t_f, steps)
            ref = qr_design_input(sys, x0, t_f, steps)
            assert np.linalg.norm(u - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_design_input_takes_at_most_two_exponentials(
            self, canonical_system, monkeypatch):
        g, targets, alloc = canonical_system
        sys = realize_system(g, targets, alloc, seed=12345)
        calls = []

        def counting_expm(m):
            calls.append(m.shape)
            return expm(m)

        monkeypatch.setattr(certify, "expm", counting_expm)
        design_input(sys, np.ones(9) / 3.0, 3.0)
        assert len(calls) <= 2


class TestAgainstRungeKutta:
    """``simulate`` and the designed input checked by an integrator that
    shares no code with the first-order-hold step."""

    def test_simulate_matches_rk4_reference(self, reference_cases):
        rng = np.random.default_rng(21)
        for sys, x0, t_f, _ in reference_cases:
            u = rng.normal(size=(11, sys.B.shape[1]))
            states, _ = simulate(sys, u, x0, t_f, 10)
            ref = rk4_response(sys, u, x0, t_f, 2000)
            assert (np.linalg.norm(states[-1] - ref)
                    <= 1e-9 * np.linalg.norm(ref))

    def test_designed_input_steers_rk4_reference(self, reference_cases):
        for sys, x0, t_f, steps in reference_cases:
            u = design_input(sys, x0, t_f, steps)
            x = rk4_response(sys, u, x0, t_f, 40 * steps)
            assert np.linalg.norm(sys.C @ x) <= 1e-6


def _as_cli_parses(g, target_labels):
    """The graph and target ids that the CLI reads from g's edge list,
    which it relabels by first appearance."""
    parsed, labels = parse_edge_list(io.StringIO(format_edge_list(g)))
    return parsed, sorted(labels[v] for v in target_labels)


def _reachable(g, sources):
    """Nodes reachable from ``sources`` along the edges of g (BFS)."""
    succ = {}
    for t, h in g.edges:
        succ.setdefault(t, []).append(h)
    seen, queue = set(sources), collections.deque(sources)
    while queue:
        for h in succ.get(queue.popleft(), ()):
            if h not in seen:
                seen.add(h)
                queue.append(h)
    return seen


def _er80_seeds(seed, k):
    """Graph, target and program seeds of instance k of verify-er80's
    benchmark seed: SHA-256 of "verify-er80/<seed>/<stream>/<k>"."""
    def derive(stream):
        digest = hashlib.sha256(f"verify-er80/{seed}/{stream}/{k}".encode())
        return int.from_bytes(digest.digest()[:4], "big")
    return tuple(derive(s) for s in ("graph", "targets", "program"))


def _er80_instance(graph_seed, target_seed):
    """ER, n = 80, mu = 3, targets 20% of the labels that occur in the
    edge list, as the verify-er80 benchmark builds it."""
    g = generate_er(80, 3, graph_seed)
    labels = sorted({v for e in g.edges for v in e})
    return g, sorted(random.Random(target_seed).sample(
        labels, max(1, round(0.2 * len(labels)))))


def _verify_er80(tmp_path, graph_seed, target_seed, program_seed):
    """Exit code and report of the CLI ``verify`` at horizon 3 on a
    verify-er80 instance (the CLI relabels the nodes when it parses it)."""
    g, targets = _er80_instance(graph_seed, target_seed)
    graph, target_file = tmp_path / "graph.txt", tmp_path / "targets.txt"
    graph.write_text(format_edge_list(g))
    target_file.write_text("".join(f"{v}\n" for v in targets))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", str(graph), str(target_file), "--tf", "3",
                     "--seed", str(program_seed)])
    return code, json.loads(out.getvalue()) if code == 0 else None


@pytest.mark.parametrize("graph_seed, target_seed, program_seed", [
    pytest.param(2385490905, 242090315, 1922872722, id="seed6-0"),
    pytest.param(3005340736, 3064451967, 3875861773, id="seed202-0"),
    pytest.param(277987678, 2644383469, 3868514311, id="seed206-0"),
    pytest.param(4204691433, 3521530477, 422947454, id="seed220-1"),
])
def test_verify_er80_accuracy_not_worse(tmp_path, graph_seed, target_seed,
                                        program_seed):
    # rank-full verify-er80 instances (seed/instance) on which an input
    # designed from the Simpson Gramian missed the 1e-3 output gate (6/0,
    # 206/0, 220/1), or passed a Runge-Kutta check while the exact
    # response of that input missed it (202/0)
    code, report = _verify_er80(tmp_path, graph_seed, target_seed,
                                program_seed)
    assert code == 0
    assert report["controllable"] and report["passed"]
    assert report["y_norm"] <= 1e-6


def test_verify_er80_seeds_1_to_30_pass(tmp_path):
    # both instances of each benchmark seed
    for seed in range(1, 31):
        for k in range(2):
            code, report = _verify_er80(tmp_path, *_er80_seeds(seed, k))
            assert code == 0, (seed, k)
            assert report["passed"], (seed, k, report["y_norm"])
