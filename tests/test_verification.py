from dataclasses import replace

import numpy as np
import pytest

import crbeam.recovery
import crbeam.scenario
import crbeam.verification
import oracles
from crbeam import rbal
from crbeam.pipeline import solve_scenario
from crbeam.rbal import prox_z
from crbeam.recovery import BeamformingSolution
from crbeam.reduction import DELTA, build_reduced, precompute_dual
from crbeam.scenario import Scenario, generate_channel
from crbeam.verification import kkt_residuals
from conftest import constrained_instance, make_scenario
from oracles import (
    build_dense_system,
    degenerate_witness_residual,
    dense_dual_inverse_check,
    dual_inverse_error,
    oracle_agreement,
    scalar_oracle_k1,
    trajectory_gap,
)


class TestDenseSystem:
    def test_block_layout(self):
        sc = make_scenario(8, 2)
        inst = build_reduced(sc, generate_channel(sc, 1))
        dense = build_dense_system(inst)
        k = 2
        assert dense.d.shape == (k + 2 * k**2, k**3 + 2 * k**2)
        # SINR row k holds rho_k vec(Q_k)^H on its own block and -vec(Q_k)^H on y
        q0 = np.outer(inst.h_tilde[:, 0], inst.h_tilde[:, 0].conj()).reshape(-1, order="F")
        assert np.allclose(dense.d[0, : k**2], inst.rho[0] * q0.conj())
        assert np.allclose(dense.d[0, k**3 : k**3 + k**2], -q0.conj())
        assert np.allclose(dense.b[:k], sc.noise_power)
        assert np.allclose(dense.b[k:], 0.0)

    @pytest.mark.parametrize("n_tx, n_users", [(64, 8), (12, 3)])
    def test_normal_factor_reproduces_normal_matrix(self, n_tx, n_users):
        sc = make_scenario(n_tx, n_users)
        dense = build_dense_system(build_reduced(sc, generate_channel(sc, 1)))
        normal = dense.d @ dense.d.conj().T + DELTA * np.eye(dense.d.shape[0])
        ell = dense.normal_factor
        assert np.array_equal(ell, np.tril(ell))
        err = np.linalg.norm(ell @ ell.conj().T - normal) / np.linalg.norm(normal)
        assert err <= 1e-13

    def test_structured_inverse_matches_dense(self):
        for k, bound in [(1, 1e-10), (2, 1e-8), (3, 1e-8), (6, 1e-8)]:
            assert dual_inverse_error(k) < bound

    def test_perturbed_factor_is_caught(self):
        # negative control: the check reads the Cholesky factor the sweep
        # solves with, so scaling it by 1 + 1e-3 must show (8.1e-3 measured)
        sc = make_scenario(12, 3)
        inst = build_reduced(sc, generate_channel(sc, 11))
        dual = precompute_dual(inst)
        assert dense_dual_inverse_check(inst, dual) < 1e-12
        perturbed = replace(dual, l_factor=np.tril(dual.l_factor) * (1.0 + 1e-3))
        assert dense_dual_inverse_check(inst, perturbed) >= 1e-3


class TestTrajectoryEquivalence:
    def test_single_iteration_from_zero_duals_is_exact(self):
        assert trajectory_gap(2, 1) < 1e-13

    def test_hundred_iterations(self):
        assert trajectory_gap(2, 100) < 1e-7

    @pytest.mark.parametrize("n_users, sweeps, bound", [(1, 10, 1e-10), (2, 50, 1e-7), (4, 100, 1e-7)])
    def test_sweeps_match_dense_recursion(self, n_users, sweeps, bound):
        assert trajectory_gap(n_users, sweeps) < bound

    def test_flipped_z_sign_breaks_equivalence(self, monkeypatch):
        # negative control: the opposite Z-step sign diverges from the
        # literal vectorized recursion almost immediately
        def flipped_z_iterate(state, instance, dual, tau):
            # iterate hands prox_z z + tau * omega2; 2 z minus that is z - tau * omega2
            with monkeypatch.context() as patch:
                patch.setattr(
                    rbal, "prox_z", lambda z_t, *args: prox_z(2.0 * state.z - z_t, *args)
                )
                return rbal.iterate(state, instance, dual, tau)

        monkeypatch.setattr(oracles, "iterate", flipped_z_iterate)
        assert trajectory_gap(2, 50) > 1e-3


class TestScalarOracle:
    def canonical(self, p_t):
        sc = Scenario(4, 1, p_t, np.array([10.0]), 1.0)
        h = np.array([[1.0], [1.0], [0.0], [0.0]], dtype=complex)
        return sc, h

    def test_binding_constraint(self):
        sc, h = self.canonical(8.0)
        x, objective, degenerate = scalar_oracle_k1(sc, h)
        assert x == pytest.approx(5.0, abs=1e-9)
        assert objective == pytest.approx(3.2, rel=1e-12)
        assert not degenerate

    def test_interior_optimum(self):
        sc, h = self.canonical(100.0)
        x, objective, degenerate = scalar_oracle_k1(sc, h)
        assert x == pytest.approx(25.0, rel=1e-9)
        assert objective == pytest.approx(0.16, rel=1e-12)
        assert degenerate

    def test_boundary_budget(self):
        sc, h = self.canonical(5.0)  # exactly the minimum power
        x, objective, degenerate = scalar_oracle_k1(sc, h)
        assert x == pytest.approx(5.0, rel=1e-12)
        assert not degenerate

    def test_infeasible_raises(self):
        sc, h = self.canonical(4.0)
        with pytest.raises(ValueError):
            scalar_oracle_k1(sc, h)

    @pytest.mark.parametrize("n_tx", [2, 4, 16, 64])
    @pytest.mark.parametrize("budget", [0.75, 0.95, 1.05, 3.0])
    def test_optimum_beats_grid(self, n_tx, budget):
        # budget is in units of Nt * x_min: below 1 the SINR floor binds
        sc0 = Scenario(n_tx, 1, 1.0, np.array([10.0]), 1.0)
        h = generate_channel(sc0, n_tx)
        x_min = 10.0 / float(np.linalg.norm(h) ** 2)
        p_t = budget * n_tx * x_min
        sc = Scenario(n_tx, 1, p_t, np.array([10.0]), 1.0)

        def f(x):
            return 1.0 / x + (n_tx - 1) ** 2 / (p_t - x)

        x, objective, degenerate = scalar_oracle_k1(sc, h)
        assert x_min * (1.0 - 1e-12) <= x < p_t
        assert degenerate == (budget > 1.0)
        assert objective == pytest.approx(f(x), rel=1e-12)
        grid = np.linspace(x_min, p_t, 10_001)[:-1]
        assert objective <= np.min(f(grid))

    def test_pipeline_agreement(self):
        # the draws are one fixed sequence, so 20 covers the first 4 and the first 8
        assert oracle_agreement(20) < 1e-6


class TestKktResiduals:
    def test_degenerate_witness(self):
        assert degenerate_witness_residual() <= 1e-8

    def test_converged_solution_certified(self):
        scenario, channel = constrained_instance(8, 2, seed=3, factor=2.0)
        result = solve_scenario(scenario, channel)
        kkt = kkt_residuals(result.solution, scenario, channel)
        assert kkt["stationarity"] <= 1e-5
        assert kkt["complementarity"] <= 1e-5
        assert kkt["theta_psd_margin"] >= -1e-5
        assert kkt["mu_min"] >= -1e-5
        assert kkt["primal_sinr"] <= 1e-5
        assert kkt["primal_power"] <= 1e-5
        assert np.all(kkt["mu"] > 0)  # constrained instance: active multipliers

    def test_isotropic_witness_multipliers(self):
        """At the isotropic optima of the paper defaults the SINR multipliers
        vanish (~1e-10); relative to the stationarity scale they read ~0."""
        scenario = make_scenario(64, 8)
        for seed in range(10):
            channel = generate_channel(scenario, seed)
            result = solve_scenario(scenario, channel)
            assert result.degenerate
            kkt = kkt_residuals(result.solution, scenario, channel)
            assert kkt["mu_min"] >= -1e-8
            assert kkt["mu_complementarity"] <= 1e-8

    def test_suboptimal_point_fails_loudly(self):
        scenario, channel = constrained_instance(8, 2, seed=3, factor=2.0)
        result = solve_scenario(scenario, channel)
        sol = result.solution
        # halving the sensing covariance keeps feasibility (it causes no
        # interference) but breaks stationarity
        perturbed = BeamformingSolution(
            v=sol.v,
            u_tilde=sol.u_tilde,
            m=0.5 * sol.m,
            theta=0.5 * sol.theta,
            sensing_factor=np.sqrt(0.5) * sol.sensing_factor,
            objective=0.0,
            sinr=sol.sinr,
        )
        kkt = kkt_residuals(perturbed, scenario, channel)
        assert kkt["stationarity"] > 1e-2

    @pytest.mark.parametrize("n_tx, n_users, seed", [(3, 2, 2), (3, 2, 4), (4, 3, 5)])
    def test_one_spare_antenna_closed_form_certified(self, n_tx, n_users, seed):
        """Nt = K+1 leaves a one-dimensional null space; these budgets are
        isotropic, and the witness is certified as in criterion 11."""
        scenario, channel = constrained_instance(n_tx, n_users, seed, factor=3.0)
        result = solve_scenario(scenario, channel)
        assert result.degenerate and result.solve_report is None
        kkt = kkt_residuals(result.solution, scenario, channel)
        measured = max(
            kkt["stationarity"],
            kkt["complementarity"],
            max(0.0, -kkt["theta_psd_margin"]),
            kkt["primal_sinr"],
            kkt["primal_power"],
        )
        assert measured <= 1e-8

    @pytest.mark.xfail(strict=True, reason=(
        "R-BAL stops on the equality rows alone, so at Nt = K+1 it reports converged "
        "after 11,878 sweeps with stationarity 1.2e-4 (ROADMAP items 1-2)"))
    def test_one_spare_antenna_converged_answer_is_stationary(self):
        scenario, channel = constrained_instance(3, 2, seed=6, factor=3.0)
        result = solve_scenario(scenario, channel)
        assert result.solve_report.status == "converged"
        assert kkt_residuals(result.solution, scenario, channel)["stationarity"] <= 1e-5

    def test_primal_sinr_independent_of_evaluate_sinr(self, monkeypatch):
        """The oracle recomputes the SINRs itself: halving w breaks them even
        when every binding of evaluate_sinr claims twice the targets."""
        scenario, channel = constrained_instance(8, 2, seed=3, factor=2.5)
        sol = solve_scenario(scenario, channel).solution
        halved = BeamformingSolution(
            v=0.5 * sol.v,
            u_tilde=sol.u_tilde,
            m=sol.m,
            theta=sol.theta,
            sensing_factor=sol.sensing_factor,
            objective=0.0,
            sinr=sol.sinr,
        )

        def claims_twice_the_targets(channel, beamformers, sensing_cov, noise):
            return 2.0 * scenario.sinr_thresholds

        for module in (crbeam.scenario, crbeam.recovery, crbeam.verification):
            monkeypatch.setattr(module, "evaluate_sinr", claims_twice_the_targets, raising=False)
        assert kkt_residuals(halved, scenario, channel)["primal_sinr"] > 0.1


def test_optimality_spot_check():
    """No feasible perturbation improves on the converged objective.

    Feasible candidates are convex combinations of the optimum with scaled
    minimum-power solutions (built independently from the dual fixed point),
    so every sampled point satisfies the SINR and power constraints exactly.
    """
    from crbeam.feasibility import compute_p_low
    from crbeam.rbal import SolverConfig, initial_state, solve
    from crbeam.reduction import build_reduced, precompute_dual
    from test_feasibility import dual_minpower_beamformers

    scenario, channel = constrained_instance(10, 3, seed=6, factor=3.0)
    inst = build_reduced(scenario, channel)
    dual = precompute_dual(inst)
    p_low = compute_p_low(scenario, channel).p_low
    state, report = solve(inst, dual, SolverConfig(), initial_state(inst, p_low))
    assert report.status == "converged"

    def reduced_objective(x_stack):
        r = x_stack.sum(axis=0)
        return float(np.sum(1.0 / np.linalg.eigvalsh(r))) + (
            scenario.n_tx - scenario.n_users
        ) ** 2 / (scenario.power_budget - float(np.trace(r).real))

    best = reduced_objective(state.x)
    rep = compute_p_low(scenario, channel)
    w_min, _ = dual_minpower_beamformers(scenario, channel, rep.lambdas)
    x_min = np.stack([
        np.outer(inst.u_tilde.conj().T @ w_min[:, k], (inst.u_tilde.conj().T @ w_min[:, k]).conj())
        for k in range(3)
    ])
    c_max = np.sqrt(scenario.power_budget / rep.p_low)
    rng = np.random.default_rng(0)
    for _ in range(100):
        t = rng.uniform(0.0, 1.0)
        c = rng.uniform(1.0, c_max)
        candidate = (1.0 - t) * state.x + t * c**2 * x_min
        assert reduced_objective(candidate) >= best * (1.0 - 1e-7)
