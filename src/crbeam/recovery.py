"""Full-space beamforming solutions from the range-space structure.

Every answer has total covariance R = U Y U^H + theta * P_null, where Y is the
K x K range block, theta the null-space level and P_null the projector onto
the orthogonal complement of the channel range.  Converged blocks X_k give
Y = sum_k X_k, theta = (P_T - sum tr X_k) / (Nt - K) and the beamformers

    w_k = U v_k,   v_k = X_k q_k / sqrt(q_k^H X_k q_k),   q_k = U^H h_k,

and the sensing covariance is the remainder R - W W^H = U M U^H + theta I
with the K x K block M = Y - theta I - V V^H.  One builder, `range_solution`,
assembles the answers of both regimes: the objective from Y, the SINRs and the
sensing covariance's PSD check from (M, theta), all K x K, and that
covariance's factor by one dense `eigh` that only factors: no production path
reads it.  An answer is (U, V, M, theta) plus the factor, its one Nt x Nt
array; `w`, `sensing_cov` and `full_cov` are recomputed on access.  This
module only builds answers: the check of an answer is the KKT certificate in
`verification`.
"""

from dataclasses import dataclass

import numpy as np

# null_space_basis is unused here; perfbench's tracer wraps it by this name
from .linalg import null_space_basis, trace_inverse  # noqa: F401
from .scenario import evaluate_sinr

NEG_TOL = 1e-8  # range_solution: a sensing eigenvalue below -NEG_TOL * tr(R), not its own size, is not PSD


class ExtractionDegenerate(Exception):
    """tr(Q_k X_k) vanished for some user; input is not a valid optimum."""


class NotPSD(Exception):
    """Matrix has a significantly negative eigenvalue."""


@dataclass
class BeamformingSolution:
    v: np.ndarray                 # K x K beamformers in the range basis: w_k = U v_k
    u_tilde: np.ndarray           # Nt x K orthonormal range basis U, shared with the instance
    m: np.ndarray                 # K x K range block of sensing_cov - theta I
    theta: float                  # null-space level: sensing_cov = U M U^H + theta I
    sensing_factor: np.ndarray    # Nt x r, F F^H = sensing_cov
    objective: float              # tr(full_cov^-1); inf when full_cov is singular
    sinr: np.ndarray

    @property
    def w(self):
        """K x Nt beamformers (U V)^T, row k user k's; uncached."""
        return (self.u_tilde @ self.v).T

    @property
    def sensing_cov(self):
        """Nt x Nt sensing covariance U M U^H + theta I in O(Nt^2 K); uncached."""
        return _dense_sensing(self.u_tilde, self.m, self.theta)

    @property
    def full_cov(self):
        """Nt x Nt total covariance U (M + V V^H) U^H + theta I in O(Nt^2 K); uncached."""
        return _dense_sensing(self.u_tilde, self.m + self.v @ self.v.conj().T, self.theta)


def _dense_sensing(u, m, theta):
    """(U M) U^H + theta I: the sensing covariance of an answer, or with M + V V^H its total."""
    cov = (u @ m) @ u.conj().T
    cov.flat[:: cov.shape[0] + 1] += theta
    return cov


def range_solution(instance, v, total, theta):
    """BeamformingSolution with total covariance theta I + U (total - theta I) U^H.

    `v` holds the beamformers in the range basis (w = U v), `total` is the
    K x K range block of the total covariance and `theta >= 0` its null-space
    level.  The objective tr(R^-1) = sum 1/eig(total) + (Nt - K) / theta is
    read off the K x K block by `trace_inverse` (inf when R is singular), and
    the SINRs are computed in the range basis, exact because every channel is
    h_k = U q_k.  The sensing covariance has spectrum eig(M) + theta and
    theta >= 0, so NotPSD is read off the K x K block.  The dense sensing
    covariance is built once, for its factor; `w`, `sensing_cov` and
    `full_cov` are derived on access.
    """
    u = instance.u_tilde
    n_tx, k = instance.n_tx, instance.n_users
    # total - theta I is exactly zero for the isotropic witness (total = theta I)
    m = total - theta * np.eye(k) - v @ v.conj().T
    power = float(np.trace(total).real) + (n_tx - k) * theta  # tr R
    # a named M + theta I would stay alive through the dense eigh and lift its peak
    if (low := np.linalg.eigvalsh(m)[0] + theta) < -NEG_TOL * power:
        raise NotPSD(f"eigenvalue {low:.3e} below -{NEG_TOL:.0e} * {power:.3e}")
    return BeamformingSolution(
        v=v, u_tilde=u, m=m, theta=theta,
        # the dense covariance lives only inside sensing_factor, which frees it
        sensing_factor=sensing_factor(_dense_sensing(u, m, theta)),
        objective=trace_inverse(np.linalg.eigvalsh(total), theta, n_tx - k),
        sinr=evaluate_sinr(instance.h_tilde, v, m + theta * np.eye(k), instance.noise_power),
    )


def extract_rank_one(x_star, instance):
    """Build a BeamformingSolution from converged blocks X_k.

    v_k = X_k q_k / sqrt(t_k) with t_k = q_k^H X_k q_k, the range block is
    sum_k X_k and theta spends the remaining budget on the null space,
    clipped at 0: blocks that spend all of P_T (a stop within the violation
    tolerance, or a capped run) leave a singular covariance, not a negative
    null-space level.
    """
    ht = instance.h_tilde

    # per-user signal weights t_k = q_k^H X_k q_k = tr(Q_k X_k)
    t = np.einsum("ik,kij,jk->k", ht.conj(), x_star, ht).real
    traces = np.einsum("kii->k", x_star).real
    weak = t <= 1e-12 * traces * instance.channel_norms_sq
    if np.any(weak):
        raise ExtractionDegenerate(f"tr(Q_k X_k) vanished for users {np.nonzero(weak)[0].tolist()}")

    v = np.einsum("kij,jk->ik", x_star, ht) / np.sqrt(t)
    theta = max((instance.power_budget - float(traces.sum())) / (instance.n_tx - instance.n_users), 0.0)
    return range_solution(instance, v, x_star.sum(axis=0), theta)


def sensing_factor(cov):
    """Rank-revealing square root F with F F^H = cov, by `eigh` because cov is
    typically rank deficient; eigenvalues <= 1e-14 * lambda_max are dropped."""
    eigs, vecs = np.linalg.eigh(cov)
    del cov  # the caller passes its only reference: free it before the scaling
    # eigh sorts ascending: scale the kept suffix of vecs in place, uncopied
    first = np.searchsorted(eigs, 1e-14 * eigs[-1], side="right")
    factor = vecs[:, first:]
    factor *= np.sqrt(eigs[first:])
    return factor
