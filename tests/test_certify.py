import numpy as np
import pytest

from targetflow import (DiGraph, DriverAllocation, LtiSystem,
                        NotNumericallyControllable, allocate_drivers,
                        controllability_gramian, design_input, expm,
                        generate_er, kalman_target_rank, realize_system,
                        simulate, solve)
from targetflow.certify import output_trajectory, write_trajectory_csv


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

    def test_overflowing_krylov_blocks_raise(self):
        # A^k B overflows long before k = 500; its NaN columns used to count
        # toward the rank and report 4 of 4, although no driver reaches the
        # isolated node 500
        g = DiGraph(501, generate_er(500, 12, 0).edges)
        sys = realize_system(g, [0, 1, 2, 500], DriverAllocation(1, ((0, 0),)),
                             seed=0)
        with pytest.raises(NotNumericallyControllable, match="overflow"):
            kalman_target_rank(sys)


class TestExpm:
    def test_zero_matrix(self):
        assert np.allclose(expm(np.zeros((3, 3))), np.eye(3))

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
        with pytest.raises(ValueError):
            controllability_gramian(sys, -1.0, 10)
        with pytest.raises(ValueError):
            controllability_gramian(sys, 1.0, 11)


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
        # sample densely enough that both step sizes hit exact samples,
        # so the difference isolates the integrator
        u = design_input(sys, x0, 3.0, 16000)
        _, y1 = simulate(sys, u, x0, 3.0, 4000)
        _, y2 = simulate(sys, u, x0, 3.0, 8000)
        assert np.linalg.norm(y1 - y2) < 1e-6

    def test_random_fixtures_steered_to_tolerance(self):
        import random

        from conftest import random_graph, random_targets
        rng = random.Random(314)
        np_rng = np.random.default_rng(314)
        checked = 0
        while checked < 5:
            g = random_graph(rng, 12, 22)
            targets = random_targets(rng, g.n)
            alloc = allocate_drivers(solve(g, targets).cover)
            sys = realize_system(g, targets, alloc, seed=checked)
            if kalman_target_rank(sys) != len(set(targets)):
                continue
            x0 = np_rng.normal(size=g.n)
            x0 /= np.linalg.norm(x0)
            try:
                u = design_input(sys, x0, 2.0, 2000)
            except NotNumericallyControllable:
                continue
            _, y = simulate(sys, u, x0, 2.0, 1000)
            assert np.linalg.norm(y) <= 1e-3
            checked += 1

    def test_uncontrollable_gramian_rejected(self):
        # driver attached to a node that feeds nothing
        g = DiGraph(3, [(0, 1), (1, 2)])
        sys = realize_system(g, [0, 2], DriverAllocation(1, ((0, 2),)), seed=0)
        with pytest.raises(NotNumericallyControllable):
            design_input(sys, np.ones(3), 3.0, 100)

    def test_trajectory_csv(self, canonical_system, tmp_path):
        g, targets, alloc = canonical_system
        sys = realize_system(g, targets, alloc, seed=0)
        states, _ = simulate(sys, np.zeros((3, 1)), np.ones(9), 1.0, 10)
        y = output_trajectory(sys, states)
        out = tmp_path / "traj.csv"
        with open(out, "w") as fh:
            write_trajectory_csv(fh, np.linspace(0, 1, 11), y)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,y_1,y_2,y_3,y_4"
        assert len(lines) == 12
