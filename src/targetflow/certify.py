"""Numeric certification of a driver allocation.

Once the combinatorial layer has placed control sources, this module
checks that the placement actually controls the chosen outputs: it draws a
weighted realization of the structure, tests the output-restricted Kalman
rank, and when that passes designs an explicit input from the finite-time
controllability Gramian that steers the target outputs to the origin.

Dense matrices are plain float64 ndarrays.  The exponential, quadrature,
rank and simulation routines are implemented here; system sizes are at
most a few hundred.
"""

import numpy as np

from .cover import DriverAllocation
from .graph import DiGraph

RANK_RTOL = 1e-9
CONDITION_LIMIT = 1e12
GRAMIAN_STEPS = 2000
SIM_STEPS = 4000
# Sampling the input twice as densely as the integrator steps puts every
# Runge-Kutta half-step on a sample, so no interpolation error enters.
DESIGN_STEPS = 2 * SIM_STEPS


class NotNumericallyControllable(RuntimeError):
    """The allocation cannot be certified numerically: the Krylov blocks of
    the rank test leave the float64 range, or the Gramian restricted to the
    outputs is too ill-conditioned to invert."""


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
        if not (np.isfinite(self.A).all() and np.isfinite(self.B).all()
                and np.isfinite(self.C).all()):
            raise ValueError("matrix entries must be finite")


def realize_system(g: DiGraph, targets, alloc: DriverAllocation,
                   seed=None) -> LtiSystem:
    """Draw edge weights uniformly on [0.5, 1.5] (bounded away from zero so
    generic-weight arguments apply), set attached inputs to one, and build
    the output selector for the sorted target set.  Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    n = g.n
    A = np.zeros((n, n))
    for t, h in g.edges:
        A[h, t] = rng.uniform(0.5, 1.5)
    B = np.zeros((n, alloc.driver_count))
    for d, v in alloc.attachments:
        if not 0 <= v < n:
            raise ValueError(f"attachment node {v} out of range")
        if not 0 <= d < alloc.driver_count:
            raise ValueError(f"driver index {d} out of range")
        B[v, d] = 1.0
    members = sorted(set(int(v) for v in targets))
    if any(v < 0 or v >= n for v in members):
        raise ValueError("target out of range")
    C = np.zeros((len(members), n))
    for k, v in enumerate(members):
        C[k, v] = 1.0
    return LtiSystem(A, B, C, members)


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a truncated series;
    the scaling halves until the norm drops below 0.5."""
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    s = 0
    nrm = np.abs(m).sum(axis=1).max() if m.size else 0.0
    while nrm >= 0.5:
        nrm /= 2.0
        s += 1
    ms = m / (2 ** s)
    n = m.shape[0]
    acc = np.eye(n)
    term = np.eye(n)
    for k in range(1, 64):
        term = term @ ms / k
        acc = acc + term
        if np.abs(term).max() <= 1e-18 * np.abs(acc).max():
            break
    for _ in range(s):
        acc = acc @ acc
    return acc


def kalman_target_rank(sys: LtiSystem) -> int:
    """Numeric rank of [CB, CAB, ..., CA^(n-1)B].

    Powers accumulate iteratively as C @ (A^k B) to keep fill bounded; the
    rank comes from row reduction where a pivot only counts if it exceeds
    1e-9 times the largest entry of its column.  The system is target
    controllable iff this equals the number of targets.

    Raises:
        NotNumericallyControllable: some A^k B overflows, so its columns
            (inf or NaN) would count toward the rank unchecked.
    """
    n = sys.A.shape[0]
    blocks = []
    x = sys.B
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            if not np.isfinite(x).all():
                raise NotNumericallyControllable(
                    f"Krylov block A^{k} B overflows float64")
            blocks.append(sys.C @ x)
            x = sys.A @ x
    return _numeric_rank(np.hstack(blocks), RANK_RTOL)


def is_target_controllable(sys: LtiSystem) -> bool:
    return kalman_target_rank(sys) == sys.C.shape[0]


def _numeric_rank(m: np.ndarray, rtol: float) -> int:
    m = np.array(m, dtype=float)
    rows, cols = m.shape
    col_scale = np.abs(m).max(axis=0) if rows else np.zeros(cols)
    rank = 0
    for j in range(cols):
        if rank == rows:
            break
        p = rank + int(np.argmax(np.abs(m[rank:, j])))
        if col_scale[j] == 0.0 or abs(m[p, j]) <= rtol * col_scale[j]:
            continue
        if p != rank:
            m[[rank, p]] = m[[p, rank]]
        factors = m[rank + 1:, j] / m[rank, j]
        m[rank + 1:, j:] -= np.outer(factors, m[rank, j:])
        rank += 1
    return rank


def controllability_gramian(sys: LtiSystem, t_f: float,
                            steps: int = GRAMIAN_STEPS) -> np.ndarray:
    """Finite-horizon Gramian: the integral over [0, t_f] of
    e^{A (t_f - t)} B B^T e^{A^T (t_f - t)}, by composite Simpson
    quadrature with ``steps`` panels (even, at least 2)."""
    if t_f <= 0:
        raise ValueError("t_f must be positive")
    if steps < 2 or steps % 2:
        raise ValueError("steps must be even and at least 2")
    h = t_f / steps
    n = sys.A.shape[0]
    w = np.zeros((n, n))
    for k in range(steps + 1):
        phi_b = expm(sys.A * (t_f - k * h)) @ sys.B
        weight = 1.0 if k in (0, steps) else (4.0 if k % 2 else 2.0)
        w += weight * (phi_b @ phi_b.T)
    w *= h / 3.0
    if not np.isfinite(w).all():
        raise FloatingPointError("non-finite Gramian")
    return w


def _solve_conditioned(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve mat @ x = rhs by elimination with partial pivoting, rejecting
    systems whose pivot spread indicates a condition number beyond 1e12."""
    m = np.array(mat, dtype=float)
    b = np.array(rhs, dtype=float)
    k = m.shape[0]
    pivots = np.empty(k)
    for j in range(k):
        p = j + int(np.argmax(np.abs(m[j:, j])))
        if m[p, j] == 0.0:
            raise NotNumericallyControllable("not numerically target controllable")
        if p != j:
            m[[j, p]] = m[[p, j]]
            b[[j, p]] = b[[p, j]]
        pivots[j] = abs(m[j, j])
        factors = m[j + 1:, j] / m[j, j]
        m[j + 1:, j:] -= np.outer(factors, m[j, j:])
        b[j + 1:] -= np.outer(factors, b[j]) if b.ndim > 1 else factors * b[j]
    if pivots.max() / pivots.min() >= CONDITION_LIMIT:
        raise NotNumericallyControllable("not numerically target controllable")
    x = np.zeros_like(b)
    for j in range(k - 1, -1, -1):
        x[j] = (b[j] - m[j, j + 1:] @ x[j + 1:]) / m[j, j]
    return x


def design_input(sys: LtiSystem, x0, t_f: float,
                 steps: int = DESIGN_STEPS) -> np.ndarray:
    """Open-loop input steering the target outputs to the origin at t_f.

    Samples u(t) = -B^T e^{A^T (t_f - t)} C^T [C W C^T]^{-1} C e^{A t_f} x0
    on the uniform quadrature grid (``steps + 1`` samples including both
    endpoints), with W the Gramian over the same grid.

    Raises:
        NotNumericallyControllable: C W C^T too ill-conditioned.
    """
    x0 = np.asarray(x0, dtype=float)
    w = controllability_gramian(sys, t_f, steps)
    gram_out = sys.C @ w @ sys.C.T
    eta = sys.C.T @ _solve_conditioned(gram_out,
                                       sys.C @ expm(sys.A * t_f) @ x0)
    h = t_f / steps
    u = np.empty((steps + 1, sys.B.shape[1]))
    bt = sys.B.T
    for k in range(steps + 1):
        u[k] = -bt @ (expm(sys.A * (t_f - k * h)).T @ eta)
    return u


def simulate(sys: LtiSystem, u: np.ndarray, x0, t_f: float,
             steps: int = SIM_STEPS):
    """Integrate dx/dt = A x + B u(t) by fixed-step fourth-order
    Runge-Kutta, interpolating ``u`` linearly between its samples (which
    are assumed uniform on [0, t_f]).

    Returns ``(states, y_final)``: the (steps + 1, n) state trajectory and
    C x(t_f).

    Raises:
        FloatingPointError: the state leaves the representable range.
    """
    if t_f <= 0:
        raise ValueError("t_f must be positive")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:  # samples of a single input
        u = u[:, np.newaxis]
    x = np.asarray(x0, dtype=float).copy()
    a, b, c = sys.A, sys.B, sys.C
    h = t_f / steps
    m = u.shape[0] - 1

    def u_at(tau):
        pos = tau / t_f * m
        i = min(int(pos), m - 1) if m > 0 else 0
        frac = pos - i
        return u[i] * (1.0 - frac) + u[i + 1] * frac if m > 0 else u[0]

    states = np.empty((steps + 1, x.size))
    states[0] = x
    for k in range(steps):
        t = k * h
        u0, um, u1 = u_at(t), u_at(t + h / 2), u_at(t + h)
        k1 = a @ x + b @ u0
        k2 = a @ (x + h / 2 * k1) + b @ um
        k3 = a @ (x + h / 2 * k2) + b @ um
        k4 = a @ (x + h * k3) + b @ u1
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.isfinite(x).all():
            raise FloatingPointError(f"state diverged at t={t + h:.6g}")
        states[k + 1] = x
    return states, c @ x


def output_trajectory(sys: LtiSystem, states: np.ndarray) -> np.ndarray:
    """Target outputs along a state trajectory: rows are time samples."""
    return states @ sys.C.T


def write_trajectory_csv(fileobj, t: np.ndarray, y: np.ndarray) -> None:
    """Write columns t, y_1, ..., y_k for external plotting."""
    y = np.atleast_2d(y)
    fileobj.write("t," + ",".join(f"y_{i + 1}" for i in range(y.shape[1])) + "\n")
    for tk, row in zip(t, y):
        fileobj.write(f"{tk:.9g}," + ",".join(f"{v:.9g}" for v in row) + "\n")
