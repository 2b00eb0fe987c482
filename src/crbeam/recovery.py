"""Full-space beamforming solutions from the range-space structure.

Every answer has total covariance R = U Y U^H + theta * P_null, where Y is the
K x K range block, theta the null-space level and P_null the projector onto
the orthogonal complement of the channel range.  Converged blocks X_k give
Y = sum_k X_k, theta = (P_T - sum tr X_k) / (Nt - K) and the beamformers

    w_k = U X_k q_k / sqrt(q_k^H X_k q_k),   q_k = U^H h_k,

and the sensing covariance is the remainder R - W W^H.  One builder,
`range_solution`, assembles the answers of both regimes: the objective from
Y alone, the sensing covariance in O(Nt^2 K), its factor by one dense `eigh`.
An answer holds those two Nt x Nt arrays; `full_cov` is recomputed on access.
This module only builds answers: the checks of an answer are the independent
oracles in `verification`.
"""

from dataclasses import dataclass

import numpy as np

# null_space_basis is unused here; perfbench's tracer wraps it by this name
from .linalg import null_space_basis  # noqa: F401
from .scenario import evaluate_sinr

NEG_TOL = 1e-8  # sensing_factor: an eigenvalue below -NEG_TOL * trace is not PSD


class ExtractionDegenerate(Exception):
    """tr(Q_k X_k) vanished for some user; input is not a valid optimum."""


class NotPSD(Exception):
    """Matrix has a significantly negative eigenvalue."""


@dataclass
class BeamformingSolution:
    w: list                       # K beamforming vectors, each (Nt,)
    sensing_cov: np.ndarray       # Nt x Nt PSD covariance of the sensing stream
    sensing_factor: np.ndarray    # Nt x r, F F^H = sensing_cov
    objective: float              # tr(full_cov^-1)
    sinr: np.ndarray

    @property
    def full_cov(self):
        """Nt x Nt total covariance W W^H + sensing_cov in O(Nt^2 K); uncached."""
        w = np.column_stack(self.w)
        full = w @ w.conj().T
        full += self.sensing_cov
        return full


def range_solution(instance, channel, v, total, theta):
    """BeamformingSolution with total covariance theta I + U (total - theta I) U^H.

    `v` holds the beamformers in the range basis (w = U v), `total` is the
    K x K range block of the total covariance and `theta` its null-space
    level.  The objective tr(R^-1) = sum 1/eig(total) + (Nt - K) / theta is
    read off the K x K block; the answer's `full_cov` is recomputed on access.
    """
    u = instance.u_tilde
    n_tx, k = instance.n_tx, instance.n_users
    w = u @ v
    # total - theta I is exactly zero for the isotropic witness (total = theta I)
    sensing_cov = (u @ (total - theta * np.eye(k) - v @ v.conj().T)) @ u.conj().T
    sensing_cov.flat[:: n_tx + 1] += theta
    return BeamformingSolution(
        w=list(w.T),
        sensing_cov=sensing_cov,
        sensing_factor=sensing_factor(sensing_cov),
        objective=float(np.sum(1.0 / np.linalg.eigvalsh(total))) + (n_tx - k) / theta,
        sinr=evaluate_sinr(channel, w, sensing_cov, instance.noise_power),
    )


def extract_rank_one(x_star, instance, channel):
    """Build a BeamformingSolution from converged blocks X_k.

    v_k = X_k q_k / sqrt(t_k) with t_k = q_k^H X_k q_k, the range block is
    sum_k X_k and theta spends the remaining budget on the null space.
    """
    ht = instance.h_tilde

    # per-user signal weights t_k = q_k^H X_k q_k = tr(Q_k X_k)
    t = np.einsum("ik,kij,jk->k", ht.conj(), x_star, ht).real
    traces = np.einsum("kii->k", x_star).real
    weak = t <= 1e-12 * traces * instance.channel_norms_sq
    if np.any(weak):
        raise ExtractionDegenerate(f"tr(Q_k X_k) vanished for users {np.nonzero(weak)[0].tolist()}")

    v = np.einsum("kij,jk->ik", x_star, ht) / np.sqrt(t)
    theta = (instance.power_budget - float(traces.sum())) / (instance.n_tx - instance.n_users)
    return range_solution(instance, channel, v, x_star.sum(axis=0), theta)


def sensing_factor(cov):
    """Rank-revealing square root F with F F^H = cov.

    Eigenvalue-based rather than Cholesky because the sensing covariance is
    typically rank deficient.  Eigenvalues below -NEG_TOL * tr(cov) raise
    NotPSD; smaller negatives are clipped to zero.
    """
    eigs, vecs = np.linalg.eigh(cov)
    tr = float(np.sum(np.abs(eigs)))
    if tr == 0.0:
        return np.zeros((cov.shape[0], 0), dtype=complex)
    if eigs[0] < -NEG_TOL * tr:
        raise NotPSD(f"eigenvalue {eigs[0]:.3e} below -{NEG_TOL:.0e} * trace")
    # eigh sorts ascending: scale the kept suffix of vecs in place, uncopied
    first = np.searchsorted(eigs, 1e-14 * eigs[-1], side="right")
    factor = vecs[:, first:]
    factor *= np.sqrt(eigs[first:])
    return factor

