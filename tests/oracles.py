"""Independent oracles the tests check the solver against.

Nothing here shares code with the structured dual update it checks: the dense
path forms each q_k q_k^H from the projected channel, materializes the full
constraint operator and checks the structured inverse, rebuilt from the sweep's
Cholesky factor, against the normal matrix; the K=1 oracle takes the minimizer
in closed form.  The measures below each return a number that a test compares
with its own threshold.
"""

from dataclasses import dataclass, replace

import numpy as np

from crbeam.feasibility import compute_p_low
from crbeam.pipeline import solve_scenario
from crbeam.rbal import SolverState, default_stepsize, initial_state, iterate, prox_x, prox_y, prox_z
from crbeam.reduction import build_reduced, precompute_dual
from crbeam.scenario import generate_channel
from crbeam.verification import kkt_residuals
from conftest import make_scenario


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
    and the dense solve against D D^H + delta I) is computed anew.
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


def dense_dual_inverse_check(instance, dual, delta):
    """Max-abs entry of structured_inverse @ (D D^H + delta I) - I, for the
    `dual` that precompute_dual built with this delta."""
    normal = build_dense_system(instance, delta).normal
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


def dual_inverse_error(n_users, delta, seed=11):
    scenario = make_scenario(4 * n_users, n_users)
    instance = build_reduced(scenario, generate_channel(scenario, seed))
    dual = precompute_dual(instance, delta)
    return dense_dual_inverse_check(instance, dual, delta)


def trajectory_gap(n_users, iterations, seed=5):
    """Max relative state difference between the structured sweep and the
    literal dense recursion after the given number of iterations."""
    scenario = make_scenario(4 * n_users, n_users)
    channel = generate_channel(scenario, seed)
    instance = build_reduced(scenario, channel)
    delta = 1e-4
    dual = precompute_dual(instance, delta)
    dense = build_dense_system(instance, delta)
    tau = default_stepsize(instance)

    struct = ref = initial_state(instance, compute_p_low(scenario, channel).p_low)
    for _ in range(iterations):
        struct = iterate(struct, instance, dual, tau)
        ref = reference_iterate(ref, instance, dense, tau)

    def flat(state):
        return np.concatenate([
            state.x.ravel(), state.y.ravel(), state.z.ravel(),
            state.mu.astype(complex), state.omega1.ravel(), state.omega2.ravel(),
        ])

    a, b = flat(struct), flat(ref)
    return float(np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(b))))


def oracle_agreement(count, base_seed=100):
    """Worst relative objective gap between the pipeline and the K=1 oracle
    over `count` instances spanning the isotropic and constrained regimes."""
    worst = 0.0
    rng = np.random.default_rng(base_seed)
    dims = [2, 4, 8, 16]
    for i in range(count):
        n_tx = dims[i % len(dims)]
        # alternate tight and generous budgets to hit both regimes
        gamma = 10.0
        scenario0 = make_scenario(n_tx, 1, gamma=gamma)
        channel = generate_channel(scenario0, int(rng.integers(1 << 30)))
        hnorm2 = float(np.linalg.norm(channel) ** 2)
        x_min = gamma / hnorm2
        p_t = (1.5 + 0.5 * (i % 3)) * x_min if i % 2 == 0 else (2.0 * n_tx + 5.0) * x_min
        scenario = replace(scenario0, power_budget=p_t)
        _, objective, _ = scalar_oracle_k1(scenario, channel)
        result = solve_scenario(scenario, channel)
        worst = max(worst, abs(result.solution.objective - objective) / objective)
    return worst


def degenerate_witness_residual():
    """KKT residuals of the isotropic witness on the canonical instance."""
    scenario = make_scenario(4, 1)
    channel = np.array([[1.0], [1.0], [0.0], [0.0]], dtype=complex)
    result = solve_scenario(scenario, channel)
    if not result.degenerate:
        return 1.0  # fails: the instance must take the closed-form path
    kkt = kkt_residuals(result.solution, scenario, channel)
    return max(
        kkt["stationarity"],
        kkt["complementarity"],
        max(0.0, -kkt["theta_psd_margin"]),
        kkt["primal_sinr"],
        kkt["primal_power"],
        abs(kkt["omega"] - (scenario.n_tx / scenario.power_budget) ** 2)
        / (scenario.n_tx / scenario.power_budget) ** 2,
        float(np.max(np.abs(kkt["mu"]))),
    )
