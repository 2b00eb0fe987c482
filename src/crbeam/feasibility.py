"""Minimum feasible power via the uplink-style fixed point.

The SINR constraint set is nonempty iff the power budget covers the optimal
value of the classical power-minimization problem.  That value equals the sum
of the dual powers lambda_k solving

    lambda_k = sigma^2 / (rho_k * qk),
    qk = hbar_k^H (H^H H + sum_i lambda_i/sigma^2 hbar_i hbar_i^H)^-1 hbar_k,

with hbar_i = H^H h_i, i.e. the i-th column of the K x K Gram matrix.  All
work here is K x K regardless of the antenna count.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import compact_svd

FEASIBLE_MARGIN = 1e-9


class FixedPointDiverged(Exception):
    """Power fixed point failed to converge within the iteration cap."""


@dataclass(frozen=True)
class FeasibilityReport:
    p_low: float
    lambdas: np.ndarray
    feasible: bool
    borderline: bool
    iterations: int
    residual: float


def _fixed_point_rhs(gram, lam, rho, noise):
    """Evaluate the map lambda -> rhs(lambda); all matrices are K x K."""
    m = gram + gram @ ((lam / noise)[:, None] * gram)
    solved = np.linalg.solve(m, gram)
    quad = np.einsum("ij,ji->i", gram, solved).real
    return noise / (rho * quad)


def p_low_from_gram(gram, thresholds, noise, tol=1e-12, max_iterations=10000):
    """Run the fixed point on a channel Gram matrix H^H H.

    Returns (lambdas, iterations, residual).  Starts from zero, where the map
    is a standard interference function and iterates increase monotonically
    to the unique fixed point.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    rho = 1.0 + 1.0 / thresholds
    lam = np.zeros(thresholds.size)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        new = _fixed_point_rhs(gram, lam, rho, noise)
        change = np.max(np.abs(new - lam) / np.maximum(new, 1e-300))
        lam = new
        if change <= tol:
            break
    else:
        raise FixedPointDiverged(f"no convergence in {max_iterations} iterations")
    residual = float(np.max(np.abs(lam - _fixed_point_rhs(gram, lam, rho, noise)) / np.maximum(lam, 1e-300)))
    return lam, iterations, residual


def compute_p_low(scenario, channel, check_rank=True):
    """Minimum feasible transmit power and the feasibility verdict.

    The verdict uses P_T >= (1 - 1e-9) * p_low so that numerically borderline
    instances are not rejected; those are flagged via `borderline`.  Callers
    that already ran the range-space SVD of this channel (which raises
    RankDeficientChannel) pass check_rank=False to skip a second one.
    """
    channel = np.asarray(channel)
    if check_rank:
        compact_svd(channel)
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
