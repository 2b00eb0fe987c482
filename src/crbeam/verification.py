"""KKT certificate of a candidate answer, read off its dense covariances.

`kkt_residuals` fits the dual multipliers from the answer's beamformers and
covariances and recomputes the SINRs itself.  Of crbeam it reads only
`linalg`, never the solver (`rbal`) whose answers it checks.  `crbeam solve
--full-check` prints its rows.
"""

import numpy as np

from .linalg import null_space_basis, trace_inverse


def kkt_residuals(sol, scenario, channel):
    """Numerical certificate of optimality for a candidate solution.

    Recovers omega from the null-space eigenvalue of the total covariance and
    the SINR multipliers by least squares on the stationarity equations, then
    reports tr(R^-1) ("objective") and relative residuals: stationarity, PSD
    margins of the implied dual slacks, complementary slackness, primal
    feasibility.  Every dual quantity, the multipliers included, is relative
    to the stationarity scale 1/lambda_min(R)^2 + omega, so multipliers that
    vanish at an isotropic optimum read as ~0 rather than as +-1.
    Diagnostics only; never raises on a bad solution.
    """
    h = np.asarray(channel)
    n_tx, k = h.shape
    rho = 1.0 + 1.0 / scenario.sinr_thresholds
    w = np.column_stack(sol.w)
    full = sol.full_cov  # both covariances are rebuilt on each access: read once
    sens = sol.sensing_cov

    eigs, vecs = np.linalg.eigh(full)
    r_minus2 = (vecs / eigs**2) @ vecs.conj().T
    u_c = null_space_basis(h)
    theta_est = float(np.einsum("ij,ij->", u_c.conj(), full @ u_c).real) / (n_tx - k)
    omega = 1.0 / theta_est**2
    scale = 1.0 / eigs[0] ** 2 + omega

    # least-squares fit of the SINR multipliers on the user stationarity rows
    hw = h.conj().T @ w                       # hw[j, k] = h_j^H w_k
    blocks = []
    rhs = []
    for i in range(k):
        block = h * hw[:, i][None, :]
        block[:, i] *= 1.0 - rho[i]
        blocks.append(block)
        rhs.append(r_minus2 @ w[:, i] - omega * w[:, i])
    a_mat = np.vstack(blocks)
    rhs = np.concatenate(rhs)
    a_real = np.vstack([a_mat.real, a_mat.imag])
    rhs_real = np.concatenate([rhs.real, rhs.imag])
    mu = np.linalg.lstsq(a_real, rhs_real, rcond=None)[0]

    base = -r_minus2 + omega * np.eye(n_tx) + h @ (mu[:, None] * h.conj().T)
    theta_psd = np.inf
    stationarity = 0.0
    comp = 0.0
    for i in range(k):
        theta_i = base - mu[i] * rho[i] * np.outer(h[:, i], h[:, i].conj())
        tw = theta_i @ w[:, i]
        wnorm = np.linalg.norm(w[:, i])
        stationarity = max(stationarity, np.linalg.norm(tw) / (scale * wnorm))
        comp = max(comp, abs(np.vdot(w[:, i], tw).real) / (scale * wnorm**2))
        theta_psd = min(theta_psd, np.linalg.eigvalsh(theta_i)[0] / scale)
    sens_norm = np.linalg.norm(sens)
    if sens_norm > 0:
        stationarity = max(stationarity, np.linalg.norm(base @ sens) / (scale * sens_norm))
    theta_psd = min(theta_psd, np.linalg.eigvalsh(base)[0] / scale)

    # SINRs from hw and h_k^H S h_k, apart from scenario.evaluate_sinr (sol.sinr's source)
    gains = np.abs(hw) ** 2
    signal = gains.diagonal()
    sensing = np.einsum("ik,ij,jk->k", h.conj(), sens, h).real
    sinr = signal / (gains.sum(axis=1) - signal + sensing + scenario.noise_power)
    slack_rel = sinr / scenario.sinr_thresholds - 1.0
    power = float(np.trace(full).real)

    return {
        "objective": trace_inverse(eigs),
        "omega": omega,
        "mu": mu,
        "stationarity": float(stationarity),
        "theta_psd_margin": float(theta_psd),
        "complementarity": float(comp),
        "mu_complementarity": float(np.max(np.abs(mu) * np.abs(slack_rel)) / scale),
        "mu_min": float(np.min(mu) / scale),
        "primal_sinr": float(max(0.0, -np.min(slack_rel))),
        "primal_power": abs(power - scenario.power_budget) / scenario.power_budget,
    }
