########## Certifying an allocation numerically
#
# The combinatorial answer says one driver suffices for the 9-node
# instance.  Here we check that claim on an actual weighted system: draw
# random edge weights, test the output-restricted Kalman rank, then design
# an input for the exact response of the sampled signal and watch the
# target outputs land on the origin at t_f = 3.

import numpy as np

from targetflow import (DiGraph, allocate_drivers, controllability_gramian,
                        design_input, kalman_target_rank, realize_system,
                        simulate, solve)
from targetflow.certify import write_trajectory_csv

edges_1based = [(1, 2), (6, 2), (2, 3), (6, 3), (3, 6), (3, 4), (7, 4),
                (5, 6), (9, 6), (6, 7), (9, 7), (6, 9), (8, 9)]
g = DiGraph(9, [(t - 1, h - 1) for t, h in edges_1based])
targets = [v - 1 for v in (2, 3, 7, 9)]

alloc = allocate_drivers(solve(g, targets).cover)
system = realize_system(g, targets, alloc, seed=12345)
print("B pattern (rows with input):", np.flatnonzero(system.B).tolist())

rank = kalman_target_rank(system)
print(f"Kalman target rank: {rank} of {len(targets)} targets")

# Gramian over [0, 3]; symmetric positive semidefinite by construction.
W = controllability_gramian(system, t_f=3.0)
print("Gramian symmetric to", np.abs(W - W.T).max())

# Steer a random unit-norm initial state: the designed input drives the
# four target outputs to zero at t_f while the rest of the network does
# whatever it does.  The input is linear between its samples, and
# simulate steps that signal exactly.
rng = np.random.default_rng(99)
x0 = rng.normal(size=9)
x0 /= np.linalg.norm(x0)

u = design_input(system, x0, t_f=3.0)
states, y_final = simulate(system, u, x0, t_f=3.0)
print("||y(3)||_2 =", np.linalg.norm(y_final))

# Export the output trajectories for plotting elsewhere.
t = np.linspace(0.0, 3.0, states.shape[0])
with open("target_outputs.csv", "w") as fh:
    write_trajectory_csv(fh, t, states @ system.C.T)
print("wrote target_outputs.csv")
