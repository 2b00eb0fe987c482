from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crbeam import rbal
from crbeam.feasibility import compute_p_low
from crbeam.linalg import monotone_scalar_root
from crbeam.rbal import (
    NumericalDivergence,
    SolverConfig,
    constraint_violation,
    default_stepsize,
    initial_state,
    iterate,
    objective_value,
    prox_x,
    prox_y,
    prox_z,
    solve,
)
from crbeam.reduction import build_reduced, precompute_dual
from crbeam.scenario import Scenario, generate_channel
from conftest import constrained_instance, make_scenario, random_hermitian
from oracles import build_dense_system


def diag_stack(*diagonals):
    k = len(diagonals[0])
    return np.stack([np.diag(np.asarray(d, dtype=complex)) for d in diagonals]).reshape(
        len(diagonals), k, k
    )


class TestProxX:
    def test_shared_water_level_hand_case(self):
        x = diag_stack([3.0, 1.0], [2.0, 0.0])
        out = prox_x(x, power_budget=4.0)
        assert np.allclose(np.diag(out[0]).real, [3.0 - 2 / 3, 1.0 - 2 / 3], atol=1e-12)
        assert np.allclose(np.diag(out[1]).real, [2.0 - 2 / 3, 0.0], atol=1e-12)
        total = sum(np.trace(b).real for b in out)
        assert total == pytest.approx(4.0, rel=1e-12)

    def test_budget_below_rounding(self):
        """A budget below the rounding of the top eigenvalue: the water level
        1 - 1e-17 rounds to 1.0, so no eigenvalue is left above it."""
        level = rbal._water_level(np.array([1.0]), 1e-17)
        assert 0.0 <= max(1.0 - level, 0.0) <= 1e-17
        out = prox_x(diag_stack([1.0, 0.5], [0.25, -1.0]), power_budget=1e-17)
        assert np.all(np.linalg.eigvalsh(out) >= 0.0)
        assert sum(np.trace(b).real for b in out) <= 1e-17

    def test_noop_within_budget(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
        x = np.einsum("kij,klj->kil", a, a.conj())
        x *= 0.5 / sum(np.trace(b).real for b in x)
        out = prox_x(x, power_budget=1.0)
        assert np.allclose(out, x, atol=1e-10)

    def test_negative_input_clipped_to_zero(self):
        x = np.stack([-np.eye(3, dtype=complex)] * 2)
        out = prox_x(x, power_budget=5.0)
        assert np.allclose(out, 0.0, atol=1e-14)

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2**31), st.floats(0.1, 50.0))
    def test_matches_bisection_oracle(self, seed, budget):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        x = np.stack([random_hermitian(rng, k, scale=3.0) for _ in range(k)])
        out = prox_x(x, budget)
        eigs = np.linalg.eigvalsh(out)
        assert np.all(eigs > -1e-10)
        total = float(sum(np.trace(b).real for b in out))
        assert total <= budget * (1 + 1e-10)
        # independent water level by bisection on the piecewise-linear mass
        raw = np.linalg.eigvalsh(x).ravel()
        if raw[raw > 0].sum() <= budget:
            level = 0.0
        else:
            level = monotone_scalar_root(
                lambda t: np.maximum(raw - t, 0.0).sum() - budget, 0.0, raw.max()
            )
        expect = np.maximum(np.linalg.eigvalsh(x) - level, 0.0)
        assert np.allclose(np.sort(eigs.ravel()), np.sort(expect.ravel()), atol=1e-8)


class TestProxY:
    def test_zero_input(self):
        out = prox_y(np.zeros((3, 3), dtype=complex), tau=8.0)
        assert np.allclose(out, 2.0 * np.eye(3), atol=1e-10)

    def test_scaled_identity(self):
        out = prox_y(2.0 * np.eye(2, dtype=complex), tau=9.0)
        assert np.allclose(out, 3.0 * np.eye(2), atol=1e-10)

    def test_small_tau_limit(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y = a @ a.conj().T + np.eye(3)
        out = prox_y(y, tau=1e-12)
        assert np.linalg.norm(out - y) < 1e-5 * np.linalg.norm(y)
        assert np.linalg.eigvalsh(out)[0] > 0


class TestProxZ:
    def test_zero_eigs_hand_case(self):
        out = prox_z(np.zeros((2, 2), dtype=complex), tau=1.0, power_budget=2.0, n_tx=4, n_users=2)
        assert np.allclose(out, 0.0, atol=1e-14)
        level = rbal._z_shrink_level(np.zeros(2), 1.0, 2.0, 2)
        assert level == pytest.approx(1.0, rel=1e-12)

    def test_zero_input_closed_form_level(self):
        level = rbal._z_shrink_level(np.zeros(3), 0.7, 5.0, 4)
        assert level == pytest.approx(0.7 * 16.0 / 25.0, rel=1e-12)

    def test_small_tau_limit(self):
        rng = np.random.default_rng(3)
        z = random_hermitian(rng, 3)
        budget = np.maximum(np.linalg.eigvalsh(z), 0).sum() * 2.0 + 1.0
        out = prox_z(z, tau=1e-14, power_budget=budget, n_tx=10, n_users=3)
        psd_part = np.linalg.eigvalsh(z).clip(0.0)
        assert np.allclose(np.sort(np.linalg.eigvalsh(out)), psd_part, atol=1e-5)

    @pytest.mark.parametrize("eigs, tau, budget, null_dim, exact", [
        ([3.0, 1.0], 1.0, 4.0, 2, 1.0),                # root exactly at an eigenvalue
        ([-1.0, 0.0, -3.0], 0.7, 5.0, 4, 0.7 * 16 / 25),  # nothing positive: tau n^2 / P_T^2
        ([1.5, 1.5, -2.0], 2.0, 1.0, 1, 2.0),          # level above every eigenvalue
        ([5.0, 4.0, 3.0], 0.5, 2.0, 3, None),          # eigenvalue mass above the budget
        ([2.0, 2.0, 2.0, 0.5], 0.3, 3.0, 3, None),     # repeated survivors
    ], ids=["at-eigenvalue", "non-positive", "all-shrunk", "mass-above-budget", "repeated"])
    def test_level_hand_cases_match_bisection(self, eigs, tau, budget, null_dim, exact):
        s = np.array(eigs)
        c = tau * null_dim**2
        expect = monotone_scalar_root(
            lambda lam: budget - np.maximum(s - lam, 0.0).sum() - np.sqrt(c / lam),
            1e-300, max(s.max(), 0.0) + c / budget**2,
        )
        level = rbal._z_shrink_level(s, tau, budget, null_dim)
        assert level == pytest.approx(expect, rel=1e-12)
        if exact is not None:
            assert level == pytest.approx(exact, rel=1e-14)

    @settings(deadline=None, max_examples=80)
    @given(st.integers(0, 2**31))
    def test_level_residual_and_trace_identity(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 7))
        eigs = rng.uniform(-5.0, 5.0, k)
        tau = float(10.0 ** rng.uniform(-6, 1))
        budget = float(rng.uniform(0.5, 50.0))
        null_dim = int(rng.integers(1, 60))
        level = rbal._z_shrink_level(eigs, tau, budget, null_dim)
        trace = np.maximum(eigs - level, 0.0).sum()
        residual = level * (budget - trace) ** 2 - tau * null_dim**2
        assert abs(residual) <= 1e-10 * (tau * null_dim**2 + level * budget**2)
        # P_T - tr(Z) = (Nt - K) sqrt(tau / level), and strictly positive
        assert budget - trace == pytest.approx(null_dim * np.sqrt(tau / level), rel=1e-10)
        assert budget - trace > 0


class TestIterate:
    def make(self, seed=6):
        scenario, channel = constrained_instance(12, 3, seed=seed, factor=3.0)
        inst = build_reduced(scenario, channel)
        dual = precompute_dual(inst)
        self.p_low = compute_p_low(scenario, channel).p_low
        return inst, dual, default_stepsize(inst)

    def test_state_invariants_along_trajectory(self):
        inst, dual, tau = self.make()
        state = initial_state(inst, self.p_low)
        p_t = inst.power_budget
        for _ in range(300):
            state = iterate(state, inst, dual, tau)
            for block in (state.y, state.z, state.omega1, state.omega2, *state.x):
                # max-abs deviation from Hermitian symmetry, relative to ||block||_F
                assert np.max(np.abs(block - block.conj().T)) <= 1e-10 * np.linalg.norm(block)
            x_eigs = np.linalg.eigvalsh(state.x)
            assert np.all(x_eigs >= -1e-10 * max(np.abs(x_eigs).max(), 1e-30))
            assert sum(np.trace(b).real for b in state.x) <= p_t * (1 + 1e-10)
            assert np.linalg.eigvalsh(state.y)[0] > 0
            assert np.trace(state.z).real < p_t
            assert np.isrealobj(state.mu)

    def test_stepsize_matches_dense_frobenius_norm(self):
        inst, _, _ = self.make()
        dense = build_dense_system(inst)
        fro = np.linalg.norm(dense.d)
        assert default_stepsize(inst) == pytest.approx(0.9 / fro, rel=1e-12)

    def test_residuals_small_at_feasible_point_with_zero_duals(self):
        inst, dual, tau = self.make()
        state = initial_state(inst, self.p_low)
        before = constraint_violation(state, inst)
        nxt = iterate(state, inst, dual, tau)
        # duals move proportionally to the (finite) residuals; no blow-up
        assert np.all(np.isfinite(nxt.mu))
        assert constraint_violation(nxt, inst) < 10 * before + 1.0


class TestSolve:
    def test_single_user_scalar_oracle(self):
        sc = Scenario(4, 1, 8.0, np.array([10.0]), 1.0)
        h = np.array([[1.0], [1.0], [0.0], [0.0]], dtype=complex)
        inst = build_reduced(sc, h)
        dual = precompute_dual(inst)
        p_low = compute_p_low(sc, h).p_low
        state, report = solve(inst, dual, SolverConfig(), initial_state(inst, p_low))
        assert report.status == "converged"
        assert report.final_violation < 1e-9
        assert state.x[0, 0, 0].real == pytest.approx(5.0, abs=1e-6)
        assert report.objective == pytest.approx(3.2, abs=1e-6)

    def test_three_user_convergence_and_tight_sinr(self, solved_k3):
        scenario, channel, result = solved_k3
        report = result.solve_report
        assert report.status == "converged"
        assert report.final_violation < 1e-9
        margins = result.solution.sinr / scenario.sinr_thresholds - 1.0
        assert np.max(np.abs(margins)) < 1e-8

    def test_warm_start_is_immediate(self, solved_k3):
        scenario, channel, _ = solved_k3
        inst = build_reduced(scenario, channel)
        dual = precompute_dual(inst)
        p_low = compute_p_low(scenario, channel).p_low
        state, report = solve(inst, dual, SolverConfig(), initial_state(inst, p_low))
        state2, report2 = solve(inst, dual, SolverConfig(), init=state)
        assert report2.status == "converged"
        assert report2.iterations == state.iteration  # no extra sweeps

    def test_violation_trend_windowed_decay(self):
        # per-iteration the violation is non-monotone; 50-iteration window
        # means decay smoothly, with bounded flutter near the stopping floor
        scenario, channel = constrained_instance(12, 3, seed=4, factor=3.0)
        inst = build_reduced(scenario, channel)
        dual = precompute_dual(inst)
        config = SolverConfig()
        tau = default_stepsize(inst)
        state = initial_state(inst, compute_p_low(scenario, channel).p_low)
        violations = []  # after each sweep, as solve reads them, up to its stop
        while not violations or violations[-1] > config.tol_violation:
            assert len(violations) < config.max_iterations
            state = iterate(state, inst, dual, tau)
            violations.append(constraint_violation(state, inst))
        violations = np.array(violations)
        window = 50
        n_windows = violations.size // window
        means = violations[: n_windows * window].reshape(n_windows, window).mean(axis=1)
        assert np.all(means[1:] <= 2.5 * means[:-1] + 10 * config.tol_violation)
        assert means[-1] < 1e-6 * means[0]

    def test_iteration_cap_status(self):
        scenario, channel = constrained_instance(12, 3, seed=4, factor=3.0)
        inst = build_reduced(scenario, channel)
        dual = precompute_dual(inst)
        p_low = compute_p_low(scenario, channel).p_low
        _, report = solve(inst, dual, SolverConfig(max_iterations=5), initial_state(inst, p_low))
        assert report.status == "iteration_cap"
        assert report.iterations == 5

    def test_runs_at_default_stepsize(self):
        """N capped sweeps of solve are N sweeps of iterate at default_stepsize, bit for bit."""
        scenario, channel = constrained_instance(12, 3, seed=4, factor=3.0)
        inst = build_reduced(scenario, channel)
        dual = precompute_dual(inst)
        init = initial_state(inst, compute_p_low(scenario, channel).p_low)
        state, report = solve(inst, dual, SolverConfig(max_iterations=20), init)
        assert report.status == "iteration_cap"
        expect, tau = init, default_stepsize(inst)
        for _ in range(20):
            expect = iterate(expect, inst, dual, tau)
        for name in ("x", "y", "z", "mu", "omega1", "omega2"):
            assert getattr(state, name).tobytes() == getattr(expect, name).tobytes(), name
        assert state.iteration == expect.iteration == 20

    def test_budget_below_rounding_in_a_sweep(self):
        """At sigma^2 = 1e-10 with the channel scaled by 1e6, P_T = 3 p_low is
        1.6e-21, and the second sweep hands prox_x a budget below the rounding
        of its top eigenvalue: the blocks stay PSD and within the budget."""
        probe = make_scenario(12, 3, 1.0, noise=1e-10)
        channel = 1e6 * generate_channel(probe, 1)
        p_low = compute_p_low(probe, channel).p_low
        inst = build_reduced(make_scenario(12, 3, 3.0 * p_low, noise=1e-10), channel)
        config = SolverConfig(max_iterations=2)
        state, _ = solve(inst, precompute_dual(inst), config, initial_state(inst, p_low))
        assert state.iteration == 2
        assert np.all(np.linalg.eigvalsh(state.x) >= 0.0)
        assert sum(np.trace(b).real for b in state.x) <= inst.power_budget

    def test_fewer_users_lower_objective(self):
        # dropping users of the same channel relaxes the problem, so the
        # optimal trace-inverse can only go down
        from crbeam.pipeline import solve_scenario
        from crbeam.scenario import Scenario
        from crbeam.feasibility import compute_p_low

        probe = make_scenario(16, 6, power=1.0)
        channel = generate_channel(probe, 19)
        p_low = compute_p_low(probe, channel).p_low
        full = Scenario(16, 6, 2.0 * p_low, np.full(6, 10.0), 1.0)
        res_full = solve_scenario(full, channel)
        assert res_full.solve_report.status == "converged"
        half = Scenario(16, 3, 2.0 * p_low, np.full(3, 10.0), 1.0)
        res_half = solve_scenario(half, channel[:, :3])
        assert res_half.solution.objective < res_full.solution.objective

    def test_objective_uses_split_variables(self, solved_k3):
        scenario, channel, result = solved_k3
        inst = build_reduced(scenario, channel)
        state = initial_state(inst, compute_p_low(scenario, channel).p_low)
        k = inst.n_users
        expect = k / state.y[0, 0].real + (inst.n_tx - k) ** 2 / (
            inst.power_budget - np.trace(state.z).real
        )
        assert objective_value(state, inst) == pytest.approx(expect, rel=1e-12)

    def test_spent_budget_start_objective(self):
        """At P_T <= 2 p_low the start spends the whole budget, so P_T - tr Z is
        0 up to rounding: a null-space level at or below COND_TOL times the top
        eigenvalue, so the objective reads inf, never a large finite value, a
        division by zero or a negative value."""
        from crbeam.pipeline import solve_scenario

        for k in (2, 3, 4, 8):
            for seed in range(5):
                for factor in np.linspace(1.1, 2.0, 5):
                    scenario, channel = constrained_instance(4 * k, k, seed, factor=factor)
                    result = solve_scenario(scenario, channel, SolverConfig(max_iterations=0))
                    assert result.solve_report.objective == np.inf, (k, seed, factor)
                    assert result.solution.objective == np.inf, (k, seed, factor)
        # tr Z just past P_T reads inf too, not a large negative value
        inst = build_reduced(*constrained_instance(8, 2, seed=0))
        state = initial_state(inst, p_low=inst.power_budget)
        assert objective_value(replace(state, z=state.z * (1.0 + 1e-12)), inst) == np.inf


@pytest.mark.parametrize("name", ["max_iterations"])
@pytest.mark.parametrize("value", [-1, 2.5, True, "3", None])
def test_config_validation_iteration_counts(name, value):
    with pytest.raises(ValueError, match=name):
        SolverConfig(**{name: value})
    assert getattr(SolverConfig(**{name: np.int64(3)}), name) == 3


@pytest.mark.parametrize("name", ["tol_violation"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_config_validation_non_finite(name, value):
    """The stop's violation norm is fixed, so no value of it, finite or not, is accepted."""
    with pytest.raises(TypeError, match=name):
        SolverConfig(**{name: value})


def test_config_validation():
    """solve always stops at a violation norm of 1e-9; the tolerance is not a setting."""
    with pytest.raises(TypeError):
        SolverConfig(tol_violation=0.0)
    assert SolverConfig().tol_violation == 1e-9


def test_config_has_no_stepsize():
    """solve always runs at default_stepsize; a fixed stepsize is iterate's argument."""
    with pytest.raises(TypeError):
        SolverConfig(tau=0.1)


class TestNumericalDivergence:
    def setup_method(self):
        scenario, channel = constrained_instance(12, 3, seed=1)
        self.inst = build_reduced(scenario, channel)
        self.dual = precompute_dual(self.inst)
        self.init = initial_state(self.inst, compute_p_low(scenario, channel).p_low)

    def test_non_finite_violation(self):
        """A NaN in the start is caught by the first violation check, before any sweep."""
        init = replace(self.init, y=np.full_like(self.init.y, np.nan))
        with pytest.raises(NumericalDivergence, match=r"^violation became non-finite at sweep 0$"):
            solve(self.inst, self.dual, SolverConfig(), init)

    @pytest.mark.filterwarnings("error")  # the overflow on the way prints no warning either
    def test_non_finite_dual_step(self):
        """A subnormal stepsize overflows the dual step 1/tau in the first sweep."""
        with pytest.raises(NumericalDivergence, match=r"^dual step became non-finite at sweep 1$"):
            iterate(self.init, self.inst, self.dual, 1e-310)
