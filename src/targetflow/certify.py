"""Numeric certification of a driver allocation.

Once the combinatorial layer has placed control sources, this module
checks that the placement actually controls the chosen outputs: it draws a
weighted realization of the structure, tests the output-restricted Kalman
rank, and when that passes designs an explicit input that steers the
target outputs to the origin.

Dense matrices are plain float64 ndarrays, at most a few hundred wide.
An input is a set of samples on a uniform grid, linear between samples
(first-order hold).  ``design_input`` and ``simulate`` both step such an
input exactly, by one block exponential, so no quadrature or integrator
error sits between the design and its check.
"""

import numpy as np

from .cover import DriverAllocation, _checked_targets
from .graph import DiGraph, _ids

RANK_RTOL = 1e-9
CONDITION_LIMIT = 1e12
GRAMIAN_STEPS = 2000
# The design is exact at any step count; this sets the input's resolution
# and the rows of the simulated trajectory.
DESIGN_STEPS = 500


class NotNumericallyControllable(RuntimeError):
    """The allocation cannot be certified numerically: the map from input
    samples to the target outputs is too ill-conditioned to invert."""


class LtiSystem:
    """Weighted realization (A, B, C) of a graph plus driver allocation.

    A[i, j] is nonzero exactly where edge (j -> i) exists, B[i, m] exactly
    where driver m attaches to node i, and row k of C picks out the k-th
    target node.
    """

    __slots__ = ("A", "B", "C", "targets")

    def __init__(self, A, B, C, targets):
        self.A = np.asarray(A, dtype=float)
        self.B = np.asarray(B, dtype=float)
        self.C = np.asarray(C, dtype=float)
        self.targets = tuple(targets)
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("A must be square")
        if self.B.shape[0] != n or self.C.shape[1] != n:
            raise ValueError("B/C dimensions do not match A")
        if not all(np.isfinite(x).all() for x in (self.A, self.B, self.C)):
            raise ValueError("matrix entries must be finite")


def realize_system(g: DiGraph, targets, alloc: DriverAllocation,
                   seed=None) -> LtiSystem:
    """Draw edge weights uniformly on [0.5, 1.5] (bounded away from zero so
    generic-weight arguments apply), set attached inputs to one, and build
    the output selector for the sorted target set.  Deterministic per seed.
    """
    members = _checked_targets(g, targets)
    drivers, nodes = _ids(alloc.attachments, 2).T
    _ids(nodes, below=g.n, name="attachment node")
    _ids(drivers, below=alloc.driver_count, name="driver index")
    rng = np.random.default_rng(seed)
    A = np.zeros((g.n, g.n))
    A[g.head, g.tail] = rng.uniform(0.5, 1.5, size=g.tail.size)
    B = np.zeros((g.n, alloc.driver_count))
    B[nodes, drivers] = 1.0
    C = np.zeros((len(members), g.n))
    C[range(len(members)), members] = 1.0
    return LtiSystem(A, B, C, members)


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a truncated series;
    the scaling halves until the norm drops below 0.5."""
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    s = 0
    with np.errstate(over="ignore"):
        nrm = np.abs(m).sum(axis=1).max(initial=0)
    if not np.isfinite(nrm):
        raise FloatingPointError("matrix exponential overflows")
    while nrm >= 0.5:
        nrm /= 2.0
        s += 1
    ms = m / (2 ** s)
    acc = term = np.eye(m.shape[0])
    for k in range(1, 64):
        term = term @ ms / k
        acc = acc + term
        if np.abs(term).max(initial=0) <= 1e-18 * np.abs(acc).max(initial=0):
            break
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            acc = acc @ acc
    if not np.isfinite(acc).all():
        raise FloatingPointError("matrix exponential overflows")
    return acc


def kalman_target_rank(sys: LtiSystem) -> int:
    """Numeric rank of the Kalman matrix [CB, CAB, ..., CA^(n-1)B].

    Its columns span C K, K the reachable subspace of (A, B), so the rank
    is that of C Q for an orthonormal basis Q of K; no power of A is
    formed (Paige 1981).  Block Arnoldi builds Q from an orthonormal basis
    of B: each new block is A times the last, orthogonalized twice against
    Q, and keeps the directions whose singular values exceed RANK_RTOL
    times the largest entry of B (first block) or of A (later blocks, whose
    rounding scales with A, not with their own size); a block that keeps
    none ends the basis.  No block outgrows ||A||, and a target that no
    input reaches keeps an exactly zero row in Q.  The rank counts the
    singular values of C Q above RANK_RTOL times the largest; the system is
    target controllable iff it equals the number k of targets.  They only
    grow with Q, never past ||C||_2: k above RANK_RTOL ||C||_2 end the basis.
    """
    k = sys.C.shape[0]
    c_floor = RANK_RTOL * np.linalg.norm(sys.C, 2) if k else 0.0
    q, cq = np.empty((sys.A.shape[0], 0)), np.empty((k, 0))
    block, floor = sys.B, RANK_RTOL * np.abs(sys.B).max(initial=0.0)
    a_floor = RANK_RTOL * np.abs(sys.A).max(initial=0.0)
    for _ in range(sys.A.shape[0]):  # each pass adds a direction or stops
        for _ in range(2):
            block = block - q @ (q.T @ block)
        u, s, _ = np.linalg.svd(block, full_matrices=False)
        new = u[:, s > floor]
        # the span of the block is zero where all its rows are: clear the
        # rounding the factorization leaves there
        new[~block.any(axis=1)] = 0.0
        if not new.size:
            break
        q, cq = np.hstack([q, new]), np.hstack([cq, sys.C @ new])
        if (np.linalg.svd(cq, compute_uv=False) > c_floor).sum() == k:
            return k
        block, floor = sys.A @ new, a_floor
    s = np.linalg.svd(cq, compute_uv=False)
    return int((s > RANK_RTOL * s.max(initial=0.0)).sum())


def controllability_gramian(sys: LtiSystem, t_f: float,
                            steps: int = GRAMIAN_STEPS) -> np.ndarray:
    """Finite-horizon Gramian: the integral over [0, t_f] of
    e^{A (t_f - t)} B B^T e^{A^T (t_f - t)}, by composite Simpson
    quadrature with ``steps`` panels (even, at least 2)."""
    if not 0 < t_f < np.inf:
        raise ValueError("t_f must be positive and finite")
    if steps < 2 or steps % 2:
        raise ValueError("steps must be even and at least 2")
    h = t_f / steps
    step = expm(sys.A * h)
    phi_b = sys.B
    w = np.zeros((sys.A.shape[0],) * 2)
    for k in range(steps, -1, -1):
        weight = 1.0 if k in (0, steps) else (4.0 if k % 2 else 2.0)
        w += weight * (phi_b @ phi_b.T)
        phi_b = step @ phi_b
    w *= h / 3.0
    if not np.isfinite(w).all():
        raise FloatingPointError("non-finite Gramian")
    return w


def _foh(sys, t_f, steps):
    """Exact step over h = t_f / steps for an input linear between samples
    (first-order hold): x_{k+1} = phi x_k + g0 u_k + g1 u_{k+1}, read off
    one block exponential of h [[A, B, 0], [0, 0, I], [0, 0, 0]].  That
    block has norm of order h, so expm needs no squaring at small h."""
    if not 0 < t_f < np.inf:
        raise ValueError("t_f must be positive and finite")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    h = t_f / steps
    n, m = sys.B.shape
    block = np.zeros((n + 2 * m,) * 2)
    block[:n, :n] = sys.A
    block[:n, n:n + m] = sys.B
    block[n:n + m, n + m:] = np.eye(m)
    e = expm(block * h)
    g1 = e[:n, n + m:] / h
    return e[:n, :n], e[:n, n:n + m] - g1, g1


def design_input(sys: LtiSystem, x0, t_f: float,
                 steps: int = DESIGN_STEPS) -> np.ndarray:
    """Open-loop input steering the target outputs to the origin at t_f.

    Returns ``steps + 1`` samples on the uniform grid over [0, t_f], both
    endpoints included, of an input linear between samples.  They are the
    least-norm samples, with the two end samples weighted by one half
    (trapezoid), that zero C x(t_f) in the exact response to that input;
    one least-squares solve of the map from samples to outputs gives them.

    Raises:
        NotNumericallyControllable: the map from samples to outputs has
            rank below k or condition number beyond CONDITION_LIMIT.
        FloatingPointError: that map leaves the float64 range.
    """
    return _design_input(sys, x0, steps, *_foh(sys, t_f, steps))


def _design_input(sys, x0, steps, phi, g0, g1):
    k, m = sys.C.shape[0], sys.B.shape[1]
    # x(t_f) = phi^steps x0 + sum_j M_j u_j, where M_steps = g1, M_0 =
    # phi^(steps-1) g0 and M_j = phi^(steps-1-j) (g0 + phi g1) otherwise: one
    # pass over the rows C phi^p gives each H_j = C M_j and C phi^steps x0
    ht = np.empty((steps + 1, m, k))
    with np.errstate(over="ignore", invalid="ignore"):
        rows, mid = sys.C, g0 + phi @ g1
        ht[steps] = (rows @ g1).T
        for j in range(steps - 1, 0, -1):
            ht[j] = (rows @ mid).T
            rows = rows @ phi
        ht[0] = (rows @ g0).T
        y_free = rows @ (phi @ x0)
    if not (np.isfinite(ht).all() and np.isfinite(y_free).all()):
        raise FloatingPointError("map from input samples to outputs overflows")
    # u = v / sqrt(w) for the v of least plain norm (end weight w = 1/2);
    # lstsq returns min(k, samples) singular values; its cutoff is the gate's
    ends = [0, steps]
    ht[ends] *= np.sqrt(2.0)
    u, _, _, s = np.linalg.lstsq(ht.reshape(-1, k).T, -y_free,
                                 rcond=1.0 / CONDITION_LIMIT)
    if not (s.size == k and 0 < s[0] <= CONDITION_LIMIT * s[-1]):
        raise NotNumericallyControllable("not numerically target controllable")
    u = u.reshape(steps + 1, m)
    u[ends] *= np.sqrt(2.0)
    return u


def simulate(sys: LtiSystem, u: np.ndarray, x0, t_f: float,
             steps: int = DESIGN_STEPS):
    """Exact response of dx/dt = A x + B u(t) on a uniform grid of ``steps``
    intervals.  ``u`` holds samples uniform on [0, t_f]; the input is taken
    linear between the values it has at the grid points, which is exact
    whenever the grid refines the sample grid.

    Returns ``(states, y_final)``: the (steps + 1, n) state trajectory and
    C x(t_f).

    Raises:
        FloatingPointError: the state leaves the representable range.
    """
    return _simulate(sys, u, x0, t_f, steps, *_foh(sys, t_f, steps))


def _simulate(sys, u, x0, t_f, steps, phi, g0, g1):
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:  # samples of a single input
        u = u[:, np.newaxis]
    grid = np.linspace(0.0, u.shape[0] - 1, steps + 1)
    u_grid = np.column_stack([np.interp(grid, np.arange(u.shape[0]), col)
                              for col in u.T])
    drive = u_grid[:-1] @ g0.T + u_grid[1:] @ g1.T
    # phi is close to I: adding the increment (phi - I) x rounds once at
    # the scale of x per step, where phi @ x rounds once per term
    increment = phi - np.eye(phi.shape[0])
    x = np.asarray(x0, dtype=float)
    states = np.empty((steps + 1, x.size))
    states[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            x = x + (increment @ x + drive[k])
            if not np.isfinite(x).all():
                raise FloatingPointError(
                    f"state diverged at t={(k + 1) * t_f / steps:.6g}")
            states[k + 1] = x
    return states, sys.C @ x


def write_trajectory_csv(fileobj, t: np.ndarray, y: np.ndarray) -> None:
    """Write columns t, y_1, ..., y_k for external plotting."""
    y = np.atleast_2d(y)
    fileobj.write("t," + ",".join(f"y_{i + 1}" for i in range(y.shape[1])) + "\n")
    for tk, row in zip(t, y):
        fileobj.write(f"{tk:.9g}," + ",".join(f"{v:.9g}" for v in row) + "\n")
