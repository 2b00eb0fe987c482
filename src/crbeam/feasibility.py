"""Minimum feasible power via Newton's method on the uplink fixed point.

The SINR constraint set is nonempty iff the power budget covers the optimal
value of the classical power-minimization problem.  That value equals the sum
of the dual powers lambda_k solving lambda = T(lambda),

    T_k(lambda) = sigma^2 / (rho_k * q_k),   q = diag(A),
    A = (I + G D)^-1 G,   D = diag(lambda) / sigma^2,

with G = H^H H the K x K channel Gram matrix; A = (G^-1 + D)^-1 is Hermitian
and q_k is the uplink MMSE gain of user k.  The Jacobian is closed form,

    dT_k / dlambda_j = |A_kj|^2 / (rho_k * q_k^2),

so Newton's method reaches the fixed point in a handful of K x K solves.
Forming G and the rank check's singular values read the channel passed in;
the pipeline passes U^H H (K x K, same G and singular values), so no step touches Nt.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import compact_svd, require_full_rank  # perfbench/spans.py wraps compact_svd here

FEASIBLE_MARGIN = 1e-9
NEWTON_TOL = 1e-12        # relative fixed-point residual that ends p_low_from_gram
STALL_TOL = 1e-9          # largest residual a stalled run may return (README, Numerical notes)
MAX_NEWTON_STEPS = 100


class FixedPointDiverged(Exception):
    """Power fixed point failed to converge within the iteration cap."""


@dataclass(frozen=True)
class FeasibilityReport:
    """The budget's verdict and, when the probe ran, its fixed point.

    compute_p_low fills every field.  When the isotropic screen's witness
    certifies the budget, the pipeline runs no probe: p_low, lambdas and
    residual are None and iterations is 0.
    """

    p_low: float | None
    lambdas: np.ndarray | None
    feasible: bool
    borderline: bool
    iterations: int
    residual: float | None


@np.errstate(all="ignore")  # a non-finite residual is never accepted, and the raise reports it
def p_low_from_gram(gram, thresholds, noise):
    """Newton's method for lambda = T(lambda) on a channel Gram matrix H^H H.

    Returns (lambdas, iterations, residual): iterations counts the steps taken
    from lambda = 0, and residual = max_k |T_k - lambda_k| / T_k at the
    returned point: at most NEWTON_TOL or, when strongly correlated users leave
    a rounding floor above it, the lowest of MAX_NEWTON_STEPS steps if that is
    at most STALL_TOL.  Raises FixedPointDiverged otherwise.  A point with some
    q_k <= 0 or lambda_k < 0 is rounding noise and is never returned.

    Each step solves (I - J) delta = T(lambda) - lambda.  T is concave and
    monotone, so a Newton point with every entry positive satisfies
    T <= lambda, and from there the steps decrease monotonically to the fixed
    point.  A positive Newton point exists iff the spectral radius of J is
    below 1, which can fail near lambda = 0 when users' channels are
    correlated; such a step is replaced by each user's best response,
    lambda_k <- (1 + gamma_k) T_k - gamma_k lambda_k, which solves
    lambda_k = T_k(lambda) in lambda_k alone (dT_k / dlambda_k = 1 / rho_k)
    and increases monotonically towards the fixed point from below.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    rho = 1.0 + 1.0 / thresholds
    eye = np.eye(thresholds.size)
    lam = np.zeros(thresholds.size)
    best = (np.inf, lam, 0)
    for iterations in range(MAX_NEWTON_STEPS + 1):
        # A = (I + G D)^-1 G without inverting G, which may be near singular
        a = np.linalg.solve(eye + gram * (lam / noise), gram)
        q = a.diagonal().real
        target = noise / (rho * q)
        residual = float(np.max(np.abs(target - lam) / target))
        if q.min() > 0.0 and lam.min() >= 0.0:
            if residual <= NEWTON_TOL:
                return lam, iterations, residual
            if residual < best[0]:
                best = (residual, lam, iterations)
        jac = np.abs(a) ** 2 / (rho * q * q)[:, None]
        new = lam + np.linalg.solve(eye - jac, target - lam)
        if not np.all(new > 0.0):
            new = (1.0 + thresholds) * target - thresholds * lam
        lam = new
    residual, lam, iterations = best
    if residual <= STALL_TOL:
        return lam, iterations, residual
    raise FixedPointDiverged(
        f"no convergence in {MAX_NEWTON_STEPS} iterations (best residual {residual:.2e} > {STALL_TOL:.0e})"
    )


def compute_p_low(scenario, channel):
    """Minimum feasible transmit power and the feasibility verdict.

    `channel` is H or any matrix with its Gram matrix H^H H and K columns, such
    as U^H H; a rank-deficient one raises RankDeficientChannel, which the stall
    rule of p_low_from_gram needs.  The verdict P_T >= (1 - 1e-9) * p_low
    admits borderline budgets, flagged via `borderline`.
    """
    if channel.shape[1:] != (scenario.n_users,):
        raise ValueError(f"channel shape {channel.shape} needs n_users = {scenario.n_users} columns")
    require_full_rank(np.linalg.svd(channel, compute_uv=False))
    gram = channel.conj().T @ channel
    lam, iterations, residual = p_low_from_gram(
        gram, scenario.sinr_thresholds, scenario.noise_power
    )
    p_low = float(np.sum(lam))
    feasible = scenario.power_budget >= (1.0 - FEASIBLE_MARGIN) * p_low
    borderline = abs(scenario.power_budget - p_low) <= FEASIBLE_MARGIN * p_low
    return FeasibilityReport(
        p_low=p_low,
        lambdas=lam,
        feasible=feasible,
        borderline=borderline,
        iterations=iterations,
        residual=residual,
    )
