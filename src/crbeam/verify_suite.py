"""Prebuilt oracle checks behind the `verify` CLI subcommand.

Each check returns (measured, threshold); a check passes when
measured <= threshold.  The quick tier runs in well under a minute; the full
tier adds larger dimensions and more oracle instances.
"""

import numpy as np

from .pipeline import solve_scenario
from .rbal import default_stepsize, initial_state, iterate
from .reduction import build_reduced, precompute_dual
from .scenario import Scenario, generate_channel
from .verification import (
    build_dense_system,
    dense_dual_inverse_check,
    reference_iterate,
    scalar_oracle_k1,
    kkt_residuals,
)


def _random_scenario(n_tx, n_users, seed, p_t=100.0, gamma=10.0):
    scenario = Scenario(
        n_tx=n_tx,
        n_users=n_users,
        power_budget=p_t,
        sinr_thresholds=np.full(n_users, gamma),
        noise_power=1.0,
    )
    return scenario, generate_channel(scenario, seed)


def dual_inverse_error(n_users, delta, seed=11):
    scenario, channel = _random_scenario(4 * n_users, n_users, seed)
    instance = build_reduced(scenario, channel)
    dual = precompute_dual(instance, delta)
    return dense_dual_inverse_check(instance, dual)


def trajectory_gap(n_users, iterations, seed=5):
    """Max relative state difference between the structured sweep and the
    literal dense recursion after the given number of iterations."""
    scenario, channel = _random_scenario(4 * n_users, n_users, seed)
    instance = build_reduced(scenario, channel)
    delta = 1e-4
    dual = precompute_dual(instance, delta)
    dense = build_dense_system(instance, delta)
    tau = default_stepsize(instance)

    struct = ref = initial_state(instance)
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
        scenario0, channel = _random_scenario(n_tx, 1, int(rng.integers(1 << 30)), gamma=gamma)
        hnorm2 = float(np.linalg.norm(channel) ** 2)
        x_min = gamma / hnorm2
        p_t = (1.5 + 0.5 * (i % 3)) * x_min if i % 2 == 0 else (2.0 * n_tx + 5.0) * x_min
        scenario = Scenario(
            n_tx=n_tx, n_users=1, power_budget=p_t,
            sinr_thresholds=np.array([gamma]), noise_power=1.0,
        )
        _, objective, _ = scalar_oracle_k1(scenario, channel)
        result = solve_scenario(scenario, channel)
        worst = max(worst, abs(result.solution.objective - objective) / objective)
    return worst


def degenerate_witness_residual():
    """KKT residuals of the isotropic witness on the canonical instance."""
    scenario = Scenario(
        n_tx=4, n_users=1, power_budget=100.0,
        sinr_thresholds=np.array([10.0]), noise_power=1.0,
    )
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


def build_checks(full=False):
    checks = [
        ("dense dual inverse K=1", lambda: (dual_inverse_error(1, 1e-4), 1e-8)),
        ("dense dual inverse K=2", lambda: (dual_inverse_error(2, 1e-4), 1e-8)),
        ("trajectory equivalence K=1 (10 it)", lambda: (trajectory_gap(1, 10), 1e-10)),
        ("trajectory equivalence K=2 (50 it)", lambda: (trajectory_gap(2, 50), 1e-7)),
        ("K=1 oracle agreement (4 instances)", lambda: (oracle_agreement(4), 1e-6)),
        ("degenerate witness KKT", lambda: (degenerate_witness_residual(), 1e-8)),
    ]
    if full:
        checks += [
            ("dense dual inverse K=3", lambda: (dual_inverse_error(3, 1e-4), 1e-8)),
            ("dense dual inverse K=6", lambda: (dual_inverse_error(6, 1e-4), 1e-8)),
            ("dense dual inverse K=2 delta=1e-2", lambda: (dual_inverse_error(2, 1e-2), 1e-10)),
            ("trajectory equivalence K=2 (100 it)", lambda: (trajectory_gap(2, 100), 1e-7)),
            ("trajectory equivalence K=4 (100 it)", lambda: (trajectory_gap(4, 100), 1e-7)),
            ("K=1 oracle agreement (20 instances)", lambda: (oracle_agreement(20), 1e-6)),
        ]
    return checks
