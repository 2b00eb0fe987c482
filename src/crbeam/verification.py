"""Independent oracles for validating the solver.

Nothing here shares code with the structured dual update it checks: the dense
path forms each q_k q_k^H from the projected channel, materializes the full
constraint operator and checks the structured inverse, rebuilt from the sweep's
Cholesky factor, against the normal matrix; the K=1 oracle takes the minimizer
in closed form, and the KKT check fits multipliers from a candidate solution.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import null_space_basis, trace_inverse
from .rbal import SolverState, prox_x, prox_y, prox_z


def _vec(m):
    return np.asarray(m).reshape(-1, order="F")


def _unvec(v, k):
    return v.reshape(k, k, order="F")


@dataclass(frozen=True)
class DenseSystem:
    """Literal constraint operator D and right-hand side b, plus the normal
    matrix D D^H + delta I and its dense factorization."""

    d: np.ndarray
    b: np.ndarray
    normal: np.ndarray
    normal_factor: np.ndarray   # lower Cholesky factor


def build_dense_system(instance, delta):
    """Assemble D = [A; B; C] row blocks exactly as defined.

    Row block 1 (K rows): SINR equalities, rho_k vec(Q_k)^H on the k-th x
    block and -vec(Q_k)^H on y.  Row block 2 (K^2 rows): sum_k X_k - Y = 0.
    Row block 3 (K^2 rows): Y - Z = 0.
    """
    k = instance.n_users
    k2 = k * k
    m = k + 2 * k2
    n = k * k2 + 2 * k2
    d = np.zeros((m, n), dtype=complex)
    for i, q in enumerate(instance.h_tilde.T):
        q_vec = _vec(np.outer(q, q.conj()))
        d[i, i * k2 : (i + 1) * k2] = instance.rho[i] * q_vec.conj()
        d[i, k * k2 : k * k2 + k2] = -q_vec.conj()
    eye = np.eye(k2)
    for i in range(k):
        d[k : k + k2, i * k2 : (i + 1) * k2] = eye
    d[k : k + k2, k * k2 : k * k2 + k2] = -eye
    d[k + k2 :, k * k2 : k * k2 + k2] = eye
    d[k + k2 :, k * k2 + k2 :] = -eye

    b = np.zeros(m, dtype=complex)
    b[:k] = instance.noise_power

    normal = d @ d.conj().T + delta * np.eye(m)
    return DenseSystem(d=d, b=b, normal=normal, normal_factor=np.linalg.cholesky(normal))


def _pack_u(x, y, z):
    return np.concatenate([_vec(xk) for xk in x] + [_vec(y), _vec(z)])


def reference_iterate(state, instance, dense, tau):
    """One literal balanced-ALM step with materialized u, lambda and D.

    Uses the same proximal operators as the structured path; everything else
    (the gradient step D^H lambda, the extrapolated residual D(2u+ - u) - b,
    and the dense solve against D D^H + delta I) is computed from scratch.
    """
    k = instance.n_users
    k2 = k * k
    u = _pack_u(state.x, state.y, state.z)
    lam = np.concatenate([state.mu.astype(complex), _vec(state.omega1), _vec(state.omega2)])

    u_t = u - tau * (dense.d.conj().T @ lam)
    x_t = np.stack([_unvec(u_t[i * k2 : (i + 1) * k2], k) for i in range(k)])
    y_t = _unvec(u_t[k * k2 : k * k2 + k2], k)
    z_t = _unvec(u_t[k * k2 + k2 :], k)

    x_new = prox_x(x_t, instance.power_budget)
    y_new = prox_y(y_t, tau)
    z_new = prox_z(z_t, tau, instance.power_budget, instance.n_tx, instance.n_users)

    u_new = _pack_u(x_new, y_new, z_new)
    p = dense.d @ (2.0 * u_new - u) - dense.b
    ell = dense.normal_factor
    lam_new = lam + np.linalg.solve(ell.conj().T, np.linalg.solve(ell, p)) / tau

    mu_new = lam_new[:k]
    assert np.max(np.abs(mu_new.imag)) < 1e-10 * (1.0 + np.max(np.abs(mu_new.real)))
    return SolverState(
        x=x_new, y=y_new, z=z_new,
        mu=mu_new.real.copy(),
        omega1=_unvec(lam_new[k : k + k2], k),
        omega2=_unvec(lam_new[k + k2 :], k),
        iteration=state.iteration + 1,
    )


def assemble_structured_inverse(instance, dual):
    """Materialize the block-form inverse of D D^H + delta I.

    Built purely from the cached scalars/diagonals (kappa, alpha, beta,
    Theta_1, Theta_2) and L = F F^T of the sweep's Cholesky factor F, so its
    product with the dense normal matrix checks the dual update and F.
    """
    k = instance.n_users
    k2 = k * k
    b1 = -np.stack([_vec(np.outer(q, q.conj())).conj() for q in instance.h_tilde.T])  # (K, K^2)
    v1 = dual.theta1[:, None] * b1
    v2 = dual.theta2[:, None] * b1
    l_inv = np.linalg.inv(dual.l_factor @ dual.l_factor.T).astype(complex)

    eye = np.eye(k2)
    kap = dual.kappa
    s12 = -l_inv @ v1
    s13 = -l_inv @ v2
    v1l = v1.conj().T @ l_inv
    v2l = v2.conj().T @ l_inv
    return np.block([
        [l_inv, s12, s13],
        [-v1l, kap * dual.beta * eye + v1l @ v1, kap * eye + v1l @ v2],
        [-v2l, kap * eye + v2l @ v1, kap * dual.alpha * eye + v2l @ v2],
    ])


def dense_dual_inverse_check(instance, dual):
    """Max-abs entry of structured_inverse @ (D D^H + delta I) - I."""
    normal = build_dense_system(instance, dual.delta).normal
    structured = assemble_structured_inverse(instance, dual)
    return float(np.max(np.abs(structured @ normal - np.eye(normal.shape[0]))))


def scalar_oracle_k1(scenario, channel):
    """Single-user oracle: minimize 1/x + (Nt-1)^2/(P_T - x) over x >= x_min.

    x is the scalar reduced variable, x_min = threshold * noise / ||h||^2 the
    SINR floor.  The objective is convex with its stationary point at
    x = P_T / Nt, so the optimum is max(x_min, P_T / Nt); no solver code
    involved.  Returns (x_opt, objective, degenerate) where degenerate means
    the SINR constraint is slack at the optimum.
    """
    if scenario.n_users != 1:
        raise ValueError("oracle requires K = 1")
    h = np.asarray(channel).reshape(-1)
    hnorm2 = float(np.vdot(h, h).real)
    p_t = scenario.power_budget
    x_min = float(scenario.sinr_thresholds[0]) * scenario.noise_power / hnorm2
    if p_t < x_min * (1.0 - 1e-9):
        raise ValueError(f"infeasible: P_T = {p_t} below minimum power {x_min}")
    x_min = min(x_min, p_t)
    x_opt = max(x_min, p_t / scenario.n_tx)
    if x_opt >= p_t:  # budget exactly at the feasibility boundary
        return x_opt, float("inf"), False
    objective = 1.0 / x_opt + float(scenario.n_tx - 1) ** 2 / (p_t - x_opt)
    return x_opt, objective, x_opt > x_min


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
