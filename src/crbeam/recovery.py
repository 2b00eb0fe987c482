"""Map converged reduced iterates back to full-space rank-one beamformers.

Given optimal blocks X_k, the rank-one transmit covariances are

    W_k = U (X_k q_k)(X_k q_k)^H U^H / (q_k^H X_k q_k),   q_k = U^H h_k,

and the sensing covariance absorbs the remainder of

    R_W = U (sum_k X_k) U^H + theta * P_null,   theta = (P_T - sum tr X_k) / (Nt - K),

where P_null projects onto the orthogonal complement of the channel range.
The beamforming vectors are computed directly (length Nt), so recovery costs
O(Nt K^2); per-user Nt x Nt matrices are never formed.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import null_space_basis
from .scenario import evaluate_sinr


class ExtractionDegenerate(Exception):
    """tr(Q_k X_k) vanished for some user; input is not a valid optimum."""


class NotPSD(Exception):
    """Matrix has a significantly negative eigenvalue."""


@dataclass
class BeamformingSolution:
    w: list                       # K beamforming vectors, each (Nt,)
    sensing_cov: np.ndarray       # Nt x Nt PSD covariance of the sensing stream
    sensing_factor: np.ndarray | None
    full_cov: np.ndarray | None   # Nt x Nt total covariance (optional, see extract_rank_one)
    objective: float              # tr(full_cov^-1)
    sinr: np.ndarray


def extract_rank_one(x_star, instance, channel=None, materialize_full=True):
    """Build a BeamformingSolution from converged blocks X_k.

    `channel` is only needed to evaluate the per-user SINRs; when omitted the
    projected channel stored in the instance is lifted back with u_tilde.
    With materialize_full=False the Nt x Nt total covariance is skipped and
    the objective is computed from the reduced algebra instead.
    """
    x_star = np.asarray(x_star)
    u = instance.u_tilde
    ht = instance.h_tilde
    n_tx, k = instance.n_tx, instance.n_users
    p_t = instance.power_budget

    # per-user signal weights t_k = q_k^H X_k q_k = tr(Q_k X_k)
    t = np.einsum("ik,kij,jk->k", ht.conj(), x_star, ht).real
    traces = np.einsum("kii->k", x_star).real
    q_traces = np.einsum("ik,ik->k", ht.conj(), ht).real
    weak = t <= 1e-12 * traces * q_traces
    if np.any(weak):
        raise ExtractionDegenerate(f"tr(Q_k X_k) vanished for users {np.nonzero(weak)[0].tolist()}")

    # w_k = U X_k q_k / sqrt(t_k); reduced vectors first, lifted once
    v = np.stack([x_star[i] @ ht[:, i] for i in range(k)], axis=1)  # (K, K) columns
    w_full = u @ (v / np.sqrt(t))
    beamformers = [w_full[:, i].copy() for i in range(k)]

    r_x = x_star.sum(axis=0)
    theta = (p_t - float(traces.sum())) / (n_tx - k)
    u_c = null_space_basis(u)
    # sensing covariance: range-space remainder plus the isotropic null-space block
    range_gap = r_x - (v / t) @ v.conj().T
    sensing_cov = u @ range_gap @ u.conj().T + theta * (u_c @ u_c.conj().T)

    if materialize_full:
        full_cov = u @ r_x @ u.conj().T + theta * (u_c @ u_c.conj().T)
        objective = float(np.sum(1.0 / np.linalg.eigvalsh(full_cov)))
    else:
        full_cov = None
        objective = float(np.sum(1.0 / np.linalg.eigvalsh(r_x))) + (n_tx - k) / theta

    h = np.asarray(channel) if channel is not None else u @ ht
    sinr = evaluate_sinr(h, w_full, sensing_cov, instance.noise_power)
    return BeamformingSolution(
        w=beamformers,
        sensing_cov=sensing_cov,
        sensing_factor=sensing_factor(sensing_cov),
        full_cov=full_cov,
        objective=objective,
        sinr=sinr,
    )


def sensing_factor(cov, neg_tol=1e-8):
    """Rank-revealing square root F with F F^H = cov.

    Eigenvalue-based rather than Cholesky because the sensing covariance is
    typically rank deficient.  Eigenvalues below -neg_tol * tr(cov) raise
    NotPSD; smaller negatives are clipped to zero.
    """
    eigs, vecs = np.linalg.eigh(cov)
    tr = float(np.sum(np.abs(eigs)))
    if tr == 0.0:
        return np.zeros((cov.shape[0], 0), dtype=complex)
    if eigs[0] < -neg_tol * tr:
        raise NotPSD(f"eigenvalue {eigs[0]:.3e} below -{neg_tol:.0e} * trace")
    eigs = np.maximum(eigs, 0.0)
    keep = eigs > 1e-14 * eigs[-1]
    return vecs[:, keep] * np.sqrt(eigs[keep])


def verify_solution(sol, scenario, channel, reduced_objective=None):
    """Diagnostic residuals of a solution against the original constraints.

    Returns a dict of relative residuals/margins; purely informational, never
    raises.  If `reduced_objective` is given the consistency gap against the
    full-space trace-inverse objective is included.
    """
    channel = np.asarray(channel)
    thresholds = scenario.sinr_thresholds
    w = np.column_stack(sol.w)

    sensing = sol.sensing_cov
    full = sol.full_cov
    if full is None:
        full = w @ w.conj().T + sensing

    power = float(np.trace(full).real)
    sinr = evaluate_sinr(channel, w, sensing, scenario.noise_power)
    sensing_eigs = np.linalg.eigvalsh(sensing)
    sensing_tr = float(np.trace(sensing).real)

    n_tx, k = channel.shape
    theta = (scenario.power_budget - float(np.sum(np.abs(w) ** 2))) / (n_tx - k)
    u_c = null_space_basis(channel)
    projector_gap = np.linalg.norm(sensing - theta * (u_c @ u_c.conj().T)) / max(
        abs(theta) * np.sqrt(n_tx - k), 1e-300
    )
    cross_scale = np.linalg.norm(channel, 2) * max(np.abs(sensing_eigs[-1]), 1e-300)

    record = {
        "sinr_margin": float(np.min(sinr / thresholds - 1.0)),
        "power_residual": abs(power - scenario.power_budget) / scenario.power_budget,
        "sensing_psd_margin": float(sensing_eigs[0] / max(sensing_tr / n_tx, 1e-300)),
        "range_leak": float(np.max(np.abs(channel.conj().T @ sensing)) / cross_scale),
        "projector_gap": float(projector_gap),
        "cov_residual": float(
            np.linalg.norm(w @ w.conj().T + sensing - full) / np.linalg.norm(full)
        ),
    }
    if reduced_objective is not None:
        full_obj = float(np.sum(1.0 / np.linalg.eigvalsh(full)))
        record["objective_gap"] = abs(full_obj - reduced_objective) / abs(full_obj)
    return record
