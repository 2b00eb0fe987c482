"""Splitting solver for the reduced equality-constrained design.

The reduced problem

    min  tr(Y^-1) + (Nt-K)^2 / (P_T - tr Z)   over X_1..X_K, Y, Z
    s.t. rho_k tr(Q_k X_k) - tr(Q_k Y) = sigma^2   for each user,
         sum_k X_k = Y,  Y = Z,
         X in { PSD blocks with sum of traces <= P_T }

is solved by a balanced augmented Lagrangian sweep: one proximal step per
primal block (all closed-form, K+2 eigendecompositions of K x K matrices),
then a structured dual update whose only linear solve is against the cached
K x K Cholesky factor.  Nothing here touches an Nt-sized object, so a sweep
costs the same at any antenna count.  At K <= 8 that cost is Python overhead,
not flops: in two untraced perfbench runs of the constrained workload a
sweep took 1.8x as long at K=8 as at K=2.
"""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

# monotone_scalar_root is unused here; perfbench's tracer wraps it by this name
from .linalg import monotone_scalar_root, positive_cubic_root, trace_inverse  # noqa: F401


class NumericalDivergence(Exception):
    """Non-finite value in the solver state."""


@dataclass(frozen=True)
class SolverConfig:
    tol_violation: ClassVar[float] = 1e-9  # the stop's violation norm, not a setting
    max_iterations: int = 200000

    def __post_init__(self):
        value = self.max_iterations
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
            raise ValueError(f"max_iterations must be an integer >= 0, got {value!r}")


@dataclass
class SolverState:
    """Never mutated in place: every sweep builds new arrays."""

    x: np.ndarray        # (K, K, K) stack of per-user blocks
    y: np.ndarray        # (K, K)
    z: np.ndarray        # (K, K)
    mu: np.ndarray       # (K,) real
    omega1: np.ndarray   # (K, K) Hermitian
    omega2: np.ndarray   # (K, K) Hermitian
    iteration: int = 0


@dataclass(frozen=True)
class SolveReport:
    status: str          # "converged" or "iteration_cap"
    iterations: int
    final_violation: float
    objective: float


def _survivors(eigs, budget, c):
    """m = #{positive eigenvalues s: gap(s) > 0 and s gap(s)^2 >= c}, where
    gap(s) = budget - sum(max(eigs - s, 0)), and the sum of the top m: gap
    falls down the sorted list, so the survivors are always the top m."""
    s = np.sort(eigs[eigs > 0.0])[::-1]
    csum = np.cumsum(s)
    gap = budget - (csum - np.arange(1, s.size + 1) * s)
    m = int(np.count_nonzero((gap > 0.0) & (s * gap * gap >= c)))
    return m, csum[m - 1] if m else 0.0


def _water_level(eigs, budget):
    """Smallest t >= 0 with sum(max(eigs - t, 0)) <= budget: the top m
    eigenvalues with gap > 0 survive, and t = (their sum - budget) / m."""
    m, top = _survivors(eigs, budget, 0.0)
    return max((top - budget) / m, 0.0) if m else 0.0


def _spectral_step(m, eig_map):
    """V eig_map(L) V^H for Hermitian m = V L V^H; on a stack, eig_map sees every L at once."""
    w, v = np.linalg.eigh(m)
    return (v * eig_map(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def prox_x(x_tilde, power_budget):
    """Joint projection of the K blocks onto the PSD cone with a shared trace budget.

    Eigenvalues across all blocks are soft-thresholded by a common water
    level gamma/2, the smallest nonnegative level that brings the total
    positive mass within the budget.
    """
    return _spectral_step(x_tilde, lambda w: np.maximum(w - _water_level(w.ravel(), power_budget), 0.0))


def prox_y(y_tilde, tau):
    """Proximal map of tr(Y^-1): each eigenvalue solves x^3 - s x^2 - tau = 0."""
    return _spectral_step(y_tilde, lambda w: np.array([positive_cubic_root(s, tau) for s in w.tolist()]))


def _z_shrink_level(eigs, tau, budget, null_dim):
    """Unique root lam > 0 of gap(lam) = sqrt(c / lam), with c = tau * null_dim^2
    and gap(lam) = budget - sum(max(eigs - lam, 0)).

    gap(lam) - sqrt(c / lam) increases strictly from -inf to budget, so an
    eigenvalue s survives the shrinkage iff gap(s) > 0 and s gap(s)^2 >= c.
    With the top m surviving, gap solves prox_y's cubic
    gap^3 - (budget - top-m sum) gap^2 - m c = 0 (gap = budget if m = 0),
    and lam = c / gap^2.
    """
    c = tau * float(null_dim) ** 2
    m, top = _survivors(eigs, budget, c)
    return c / (positive_cubic_root(budget - top, m * c) if m else budget) ** 2


def prox_z(z_tilde, tau, power_budget, n_tx, n_users):
    """Proximal map of the null-space power term (Nt-K)^2 / (P_T - tr Z).

    Shrinks the eigenvalues by the level lam solving the scalar equation
    above; the result always satisfies tr(Z) < P_T because
    P_T - tr(Z) = (Nt - K) sqrt(tau / lam) at the root.
    """
    null_dim = n_tx - n_users
    return _spectral_step(z_tilde, lambda w: np.maximum(w - _z_shrink_level(w, tau, power_budget, null_dim), 0.0))


def _quad_per_user(h_tilde, x_stack):
    """real(q_k^H X_k q_k) for each user, i.e. tr(Q_k X_k)."""
    return np.einsum("ik,kij,jk->k", h_tilde.conj(), x_stack, h_tilde).real


def _quad_diag(h_tilde, m):
    """real diag(H~^H M H~), i.e. tr(Q_k M) for each user."""
    return np.einsum("ik,ij,jk->k", h_tilde.conj(), m, h_tilde).real


def default_stepsize(instance):
    """0.9 over the Frobenius-norm bound on the constraint operator.

    The bound is exact in closed form: the SINR rows contribute
    rho_k^2 ||h_k||^4 and ||h_k||^4, the block-sum rows K^3, and the three
    identity blocks K^2 each.
    """
    norms4 = instance.channel_norms_sq**2
    k = float(instance.n_users)
    fro_sq = np.sum((instance.rho**2 + 1.0) * norms4) + k**3 + 3.0 * k**2
    return 0.9 / np.sqrt(fro_sq)


def initial_state(instance, p_low):
    """Isotropic start X_k = (p0 / K^2) I with p0 = min(P_T, 2 p_low): interior when
    P_T > 2 p_low, else it spends the whole budget (tr Z = P_T, objective inf)."""
    k = instance.n_users
    p0 = min(instance.power_budget, 2.0 * p_low)
    x = (p0 / k**2) * np.broadcast_to(np.eye(k, dtype=complex), (k, k, k))
    y = x.sum(axis=0)
    return SolverState(
        x=x, y=y, z=y,
        mu=np.zeros(k), omega1=np.zeros((k, k), dtype=complex),
        omega2=np.zeros((k, k), dtype=complex), iteration=0,
    )


def _residuals(instance, x, y, z):
    """SINR rows r, sum consensus r1 = sum_k X_k - Y and r2 = Y - Z."""
    r = (
        instance.rho * _quad_per_user(instance.h_tilde, x)
        - _quad_diag(instance.h_tilde, y)
        - instance.noise_power
    )
    return r, x.sum(axis=0) - y, y - z


def iterate(state, instance, dual, tau):
    """One full sweep with stepsize tau: proximal primal steps, extrapolated
    residuals, dual update."""
    ht = instance.h_tilde
    p_t = instance.power_budget

    x, y, z = state.x, state.y, state.z
    mu, om1, om2 = state.mu, state.omega1, state.omega2

    x_t = x - tau * (np.einsum("ik,jk->kij", ht * (instance.rho * mu), ht.conj()) + om1[None, :, :])
    x_new = prox_x(x_t, p_t)
    y_t = y + tau * ((ht * mu) @ ht.conj().T + om1 - om2)
    y_new = prox_y(y_t, tau)
    z_t = z + tau * om2
    z_new = prox_z(z_t, tau, p_t, instance.n_tx, instance.n_users)

    r, r1, r2 = _residuals(instance, 2.0 * x_new - x, 2.0 * y_new - y, 2.0 * z_new - z)

    rhs = r + dual.theta1 * _quad_diag(ht, r1) + dual.theta2 * _quad_diag(ht, r2)
    with np.errstate(all="ignore"):  # a non-finite step is never taken, and the raise reports it
        dmu = np.linalg.solve(dual.l_factor.T, np.linalg.solve(dual.l_factor, rhs)) / tau
    if not np.all(np.isfinite(dmu)):
        raise NumericalDivergence(f"dual step became non-finite at sweep {state.iteration + 1}")
    kap = dual.kappa
    om1_new = om1 + (kap * dual.beta * r1 + kap * r2) / tau + ht @ ((dual.theta1 * dmu)[:, None] * ht.conj().T)
    om2_new = om2 + (kap * r1 + kap * dual.alpha * r2) / tau + ht @ ((dual.theta2 * dmu)[:, None] * ht.conj().T)

    return SolverState(
        x=x_new, y=y_new, z=z_new,
        mu=mu + dmu, omega1=om1_new, omega2=om2_new,
        iteration=state.iteration + 1,
    )


def constraint_violation(state, instance):
    """Combined Euclidean norm of the three constraint residuals at the
    current (non-extrapolated) iterates."""
    r, r1, r2 = _residuals(instance, state.x, state.y, state.z)
    return float(np.sqrt(np.sum(r**2) + np.sum(np.abs(r1) ** 2) + np.sum(np.abs(r2) ** 2)))


def objective_value(state, instance):
    """tr(Y^-1) + (Nt-K)^2 / (P_T - tr Z): trace_inverse of eig(Y) and theta = (P_T - tr Z) / (Nt-K)."""
    null_dim = instance.n_tx - instance.n_users
    theta = (instance.power_budget - float(np.trace(state.z).real)) / null_dim
    return trace_inverse(np.linalg.eigvalsh(state.y), theta, null_dim)


def solve(instance, dual, config, init):
    """Run sweeps at default_stepsize(instance) from `init` until the
    violation norm drops below config.tol_violation.

    Returns (final_state, SolveReport).  Hitting the iteration cap is reported
    via status "iteration_cap", not an exception.
    """
    tau = default_stepsize(instance)
    state = init

    for steps in range(config.max_iterations + 1):
        violation = constraint_violation(state, instance)
        if not np.isfinite(violation):
            raise NumericalDivergence(f"violation became non-finite at sweep {steps}")
        if violation <= config.tol_violation or steps == config.max_iterations:
            break
        state = iterate(state, instance, dual, tau)

    report = SolveReport(
        status="converged" if violation <= config.tol_violation else "iteration_cap",
        iterations=state.iteration,
        final_violation=violation,
        objective=objective_value(state, instance),
    )
    return state, report
