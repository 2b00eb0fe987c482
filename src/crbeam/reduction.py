"""Reduction of the Nt-dimensional design to K x K variables.

The optimal per-user covariances live in the range of the channel matrix H,
and the sensing block is an isotropic scaling of the null-space projector.
Writing W_k = U X_k U^H with U an orthonormal range basis turns the design
into K coupled K x K semidefinite blocks; this module builds that instance,
precomputes every constant the structured dual update needs, and decides
whether the isotropic covariance (P_T / Nt) I is optimal, in which case the
optimum is known in closed form.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import compact_svd

# exponentiated-gradient steps before the isotropic screen defers to the solver
SCREEN_MAX_STEPS = 50
DELTA = 1e-4  # delta of D D^H + delta I, the dual normal matrix the structured dual update inverts


class IllConditionedDual(Exception):
    """Cholesky of the dual Schur complement failed; it is >= delta I, so only rounding can."""


@dataclass(frozen=True)
class ReducedInstance:
    """K-dimensional problem data.

    u_tilde: Nt x K orthonormal basis of the channel range space.
    h_tilde: K x K projected channel, column k is q_k = u_tilde^H h_k.
    rho:     per-user constants 1 + 1/threshold.
    """

    u_tilde: np.ndarray
    h_tilde: np.ndarray
    rho: np.ndarray
    power_budget: float
    noise_power: float
    n_tx: int
    n_users: int

    @property
    def channel_norms_sq(self):
        """||h_k||^2 = ||q_k||^2, the squared column norms of h_tilde."""
        return np.einsum("ik,ik->k", self.h_tilde.conj(), self.h_tilde).real


@dataclass(frozen=True)
class DualPrecompute:
    """Constants of the structured dual update, computed once per instance."""

    kappa: float
    alpha: float
    beta: float
    theta1: np.ndarray
    theta2: np.ndarray
    l_factor: np.ndarray   # lower Cholesky factor F of the Schur matrix L = F F^T


@dataclass(frozen=True)
class DegeneracyVerdict:
    """Outcome of the isotropic screen.

    isotropic: True when a witness certifies that (P_T / Nt) I is the optimal
               total covariance, False when a dual bound proves it is not,
               None when the step cap came first (the solver decides).
    steps:     exponentiated-gradient steps taken before the verdict.
    v:         K x K witness when isotropic; column k is user k's beamformer
               in the range basis, w_k = u_tilde v_k.
    """

    isotropic: bool | None
    steps: int
    v: np.ndarray | None = None


def build_reduced(scenario, channel):
    """Project (scenario, channel) onto the K-dimensional range space."""
    channel = np.asarray(channel)
    if channel.shape != (shape := (scenario.n_tx, scenario.n_users)):
        raise ValueError(f"channel shape {channel.shape} is not (n_tx, n_users) = {shape}")
    u_tilde, _, _ = compact_svd(channel)
    h_tilde = u_tilde.conj().T @ channel
    rho = 1.0 + 1.0 / np.asarray(scenario.sinr_thresholds, dtype=float)
    return ReducedInstance(
        u_tilde=u_tilde,
        h_tilde=h_tilde,
        rho=rho,
        power_budget=float(scenario.power_budget),
        noise_power=float(scenario.noise_power),
        n_tx=scenario.n_tx,
        n_users=scenario.n_users,
    )


def precompute_dual(instance):
    """Assemble kappa, alpha, beta, Theta_1, Theta_2 and the Schur matrix L.

    L is the K x K Schur complement of the regularized dual normal matrix;
    only its Cholesky factor is kept, and every iteration reuses it.
    """
    rho = instance.rho
    k = instance.n_users
    gram_abs2 = np.abs(instance.h_tilde.conj().T @ instance.h_tilde) ** 2  # |H^H H|^2 entrywise

    alpha = k + 1.0 + DELTA
    beta = DELTA + 2.0
    kappa = 1.0 / (alpha * beta - 1.0)
    theta1 = kappa * (1.0 - beta * rho - beta)
    theta2 = kappa * (alpha - rho - 1.0)

    rho1 = rho + 1.0
    p_matrix = beta * np.outer(rho1, rho1) - rho1[:, None] - rho1[None, :] + alpha
    schur = DELTA * np.eye(k) + gram_abs2 * (np.diag(rho**2) + np.ones((k, k)) - kappa * p_matrix)
    try:
        l_factor = np.linalg.cholesky(schur)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedDual(f"Cholesky of L failed for delta={DELTA}: {exc}") from exc
    return DualPrecompute(
        kappa=float(kappa),
        alpha=float(alpha),
        beta=float(beta),
        theta1=theta1,
        theta2=theta2,
        l_factor=l_factor,
    )


def check_degenerate(instance):
    """Decide exactly whether the isotropic covariance (P_T / Nt) I is optimal.

    tr(R^-1) >= Nt^2 / tr(R) >= Nt^2 / P_T with equality iff R = c I,
    c = P_T / Nt, so the optimum is isotropic iff reduced blocks X_k >= 0
    exist with sum_k X_k <= c I and q_k^H X_k q_k >= b_k, where
    b_k = (c ||h_k||^2 + sigma^2) / rho_k.  By duality that holds iff

        f(S) = sum_k b_k / (q_k^H S^-1 q_k) <= c   for every S > 0 with tr S = 1.

    The gradient of f is V V^H with v_k = sqrt(b_k) S^-1 q_k / (q_k^H S^-1 q_k),
    and X_k = v_k v_k^H meets q_k^H X_k q_k = b_k exactly.  So every S either
    proves non-isotropy (f(S) > c) or, once lambda_max(V V^H) <= c, yields the
    rank-one witness w_k = u_tilde v_k with sensing covariance c I - W W^H >= 0.
    S follows matrix exponentiated-gradient ascent (Tsuda, Raetsch and
    Warmuth, JMLR 2005) from I / K with step 0.5 / lambda_max(V V^H); a
    longer step oscillates without deciding.

    `instance` is the ReducedInstance of the scenario and its channel.
    """
    q = instance.h_tilde
    c = instance.power_budget / instance.n_tx
    b = (c * instance.channel_norms_sq + instance.noise_power) / instance.rho
    log_s = np.zeros((instance.n_users, instance.n_users), dtype=complex)
    for step in range(SCREEN_MAX_STEPS + 1):
        # M = exp(log_s - max eig) is S up to the factor tr M; v ignores the factor
        eigs, vecs = np.linalg.eigh(log_s)
        m_eigs = np.exp(eigs - eigs[-1])
        m_inv_q = (vecs / m_eigs) @ (vecs.conj().T @ q)
        quad = np.einsum("ik,ik->k", q.conj(), m_inv_q).real
        if np.sum(b / quad) / m_eigs.sum() > c:
            return DegeneracyVerdict(isotropic=False, steps=step)
        v = m_inv_q * (np.sqrt(b) / quad)
        gradient = v @ v.conj().T
        top = np.linalg.eigvalsh(gradient)[-1]
        if top <= c:
            return DegeneracyVerdict(isotropic=True, steps=step, v=v)
        log_s = log_s + (0.5 / top) * gradient
    return DegeneracyVerdict(isotropic=None, steps=SCREEN_MAX_STEPS)
