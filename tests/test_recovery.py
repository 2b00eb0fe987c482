import tracemalloc

import numpy as np
import pytest

from crbeam.feasibility import compute_p_low
from crbeam.linalg import null_space_basis
from crbeam.rbal import SolverConfig, initial_state, solve
from crbeam.recovery import (
    ExtractionDegenerate,
    NotPSD,
    extract_rank_one,
    range_solution,
    sensing_factor,
)
from crbeam.pipeline import solve_scenario
from crbeam.reduction import build_reduced, check_degenerate, precompute_dual
from crbeam.scenario import Scenario, evaluate_crb_objective, generate_channel
from conftest import constrained_instance, make_scenario


def single_user_setup():
    sc = Scenario(4, 1, 8.0, np.array([10.0]), 1.0)
    h = np.array([[1.0], [1.0], [0.0], [0.0]], dtype=complex)
    return sc, h, build_reduced(sc, h)


def converged(n_tx, k, seed):
    scenario, channel = constrained_instance(n_tx, k, seed=seed, factor=3.0)
    inst = build_reduced(scenario, channel)
    dual = precompute_dual(inst, 1e-4)
    p_low = compute_p_low(scenario, channel).p_low
    state, report = solve(inst, dual, SolverConfig(), initial_state(inst, p_low))
    assert report.status == "converged"
    return scenario, channel, inst, state


@pytest.fixture(scope="module")
def converged_k3():
    return converged(12, 3, seed=4)


class TestExtractRankOne:
    def test_single_user_known_optimum(self):
        sc, h, inst = single_user_setup()
        x_star = np.array([[[5.0 + 0j]]])
        sol = extract_rank_one(x_star, inst, channel=h)
        w = sol.w[0]
        # beamformer carries power 5 along the channel direction
        assert np.linalg.norm(w) ** 2 == pytest.approx(5.0, rel=1e-10)
        assert abs(np.vdot(h[:, 0] / np.linalg.norm(h), w)) ** 2 == pytest.approx(5.0, rel=1e-10)
        # sensing block fills the three null directions at theta = 1
        u_c = null_space_basis(h)
        assert np.allclose(sol.sensing_cov, u_c @ u_c.conj().T, atol=1e-10)
        assert sol.objective == pytest.approx(3.2, rel=1e-10)
        assert np.trace(sol.full_cov).real == pytest.approx(8.0, rel=1e-12)

    def test_idempotent_on_rank_one_blocks(self):
        scenario, channel = constrained_instance(8, 2, seed=5, factor=3.0)
        inst = build_reduced(scenario, channel)
        rng = np.random.default_rng(8)
        vs = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        x = np.stack([np.outer(v, v.conj()) for v in vs])
        x *= 0.5 * scenario.power_budget / sum(np.trace(b).real for b in x)
        sol = extract_rank_one(x, inst, channel=channel)
        for k in range(2):
            w_reduced = inst.u_tilde.conj().T @ sol.w[k]
            rebuilt = np.outer(w_reduced, w_reduced.conj())
            assert np.allclose(rebuilt, x[k], atol=1e-8 * np.linalg.norm(x[k]))

    def test_signal_power_preserved(self, converged_k3):
        scenario, channel, inst, state = converged_k3
        sol = extract_rank_one(state.x, inst, channel=channel)
        for k in range(scenario.n_users):
            q_k = inst.h_tilde[:, k]
            reduced_signal = np.vdot(q_k, state.x[k] @ q_k).real
            full_signal = abs(np.vdot(channel[:, k], sol.w[k])) ** 2
            assert full_signal == pytest.approx(reduced_signal, rel=1e-8)

    def test_degenerate_extraction_raises(self):
        sc = Scenario(6, 2, 10.0, np.array([1.0, 1.0]), 1.0)
        h = np.eye(6, dtype=complex)[:, :2]
        inst = build_reduced(sc, h)
        # user 0 gets zero signal: its block is orthogonal to the channel direction
        x = np.zeros((2, 2, 2), dtype=complex)
        q0 = inst.h_tilde[:, 0] / np.linalg.norm(inst.h_tilde[:, 0])
        perp = np.array([-np.conj(q0[1]), np.conj(q0[0])])
        x[0] = np.outer(perp, perp.conj())
        x[1] = np.eye(2)
        with pytest.raises(ExtractionDegenerate):
            extract_rank_one(x, inst, channel=h)

    def test_reduced_objective_matches_dense(self, converged_k3):
        scenario, channel, inst, state = converged_k3
        sol = extract_rank_one(state.x, inst, channel=channel)
        assert sol.objective == pytest.approx(evaluate_crb_objective(sol.full_cov), rel=1e-9)


def assert_matches_dense(sol, full_ref, w_ref):
    """The builder's covariances and objective against a dense construction."""
    scale = np.linalg.norm(full_ref)
    w = np.column_stack(sol.w)
    assert np.linalg.norm(w - w_ref) <= 1e-12 * np.linalg.norm(w_ref)
    assert np.linalg.norm(sol.full_cov - full_ref) <= 1e-12 * scale
    sensing_ref = full_ref - w_ref @ w_ref.conj().T
    assert np.linalg.norm(sol.sensing_cov - sensing_ref) <= 1e-12 * scale
    assert np.linalg.norm(sol.sensing_cov - (sol.full_cov - w @ w.conj().T)) <= 1e-12 * scale
    assert sol.objective == pytest.approx(evaluate_crb_objective(sol.full_cov), rel=1e-12)


class TestRangeSolution:
    @pytest.mark.parametrize("n_tx, k, seed", [(12, 3, 4), (8, 2, 3), (16, 4, 5)])
    def test_converged_blocks_match_dense(self, n_tx, k, seed):
        scenario, channel, inst, state = converged(n_tx, k, seed)
        sol = extract_rank_one(state.x, inst, channel=channel)
        # dense reference: U (sum X_k) U^H + theta U_c U_c^H, w_k = U X_k q_k / sqrt(t_k)
        u = inst.u_tilde
        u_c = null_space_basis(channel)
        theta = (scenario.power_budget - sum(np.trace(x).real for x in state.x)) / (n_tx - k)
        full_ref = u @ state.x.sum(axis=0) @ u.conj().T + theta * (u_c @ u_c.conj().T)
        w_ref = np.column_stack([
            u @ state.x[i] @ inst.h_tilde[:, i]
            / np.sqrt(np.vdot(inst.h_tilde[:, i], state.x[i] @ inst.h_tilde[:, i]).real)
            for i in range(k)
        ])
        assert_matches_dense(sol, full_ref, w_ref)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_isotropic_witness_matches_dense(self, seed):
        scenario = make_scenario(64, 8)
        channel = generate_channel(scenario, seed)
        inst = build_reduced(scenario, channel)
        verdict = check_degenerate(inst)
        assert verdict.isotropic
        c = scenario.power_budget / scenario.n_tx
        sol = range_solution(inst, channel, verdict.v, c * np.eye(8), c)
        assert_matches_dense(sol, c * np.eye(64), inst.u_tilde @ verdict.v)
        assert sol.objective == pytest.approx(64**2 / scenario.power_budget, rel=1e-12)
        # the pipeline's isotropic answer is this builder's output
        result = solve_scenario(scenario, channel)
        assert result.degenerate
        assert np.array_equal(np.column_stack(result.solution.w), np.column_stack(sol.w))
        assert np.array_equal(result.solution.full_cov, sol.full_cov)


def traced_peak(fn):
    """fn()'s result and the tracemalloc peak in bytes of the call."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """Building an answer allocates about two Nt x Nt arrays at its peak: the
    sensing covariance and eigh's eigenvectors, scaled in place.  The total
    covariance is not built."""

    N_TX, K = 512, 4
    BOUND = 2.2 * N_TX**2 * 16  # bytes of 2.2 complex Nt x Nt arrays

    @pytest.fixture(scope="class")
    def isotropic(self):
        scenario = make_scenario(self.N_TX, self.K)  # 20 dBm
        channel = generate_channel(scenario, 1)
        solve_scenario(scenario, channel)  # warm-up outside the traced call
        return scenario, channel

    def test_solve_scenario(self, isotropic):
        result, peak = traced_peak(lambda: solve_scenario(*isotropic))
        assert result.degenerate
        assert peak <= self.BOUND

    def test_range_solution_clipped_factor(self, isotropic):
        scenario, channel = isotropic
        inst = build_reduced(scenario, channel)
        verdict = check_degenerate(inst)
        c = scenario.power_budget / self.N_TX
        # lambda_max(v v^H) = c leaves one zero eigenvalue in c I - W W^H to clip
        v = verdict.v * np.sqrt(c / np.linalg.eigvalsh(verdict.v @ verdict.v.conj().T)[-1])
        sol, peak = traced_peak(lambda: range_solution(inst, channel, v, c * np.eye(self.K), c))
        assert peak <= self.BOUND
        f = sol.sensing_factor
        assert f.shape == (self.N_TX, self.N_TX - 1)
        gap = np.linalg.norm(f @ f.conj().T - sol.sensing_cov)
        assert gap <= 1e-12 * np.linalg.norm(sol.sensing_cov)


class TestSensingFactor:
    def test_rank_one(self):
        cov = np.zeros((4, 4), dtype=complex)
        cov[0, 0] = 4.0
        f = sensing_factor(cov)
        assert f.shape == (4, 1)
        assert np.allclose(f @ f.conj().T, cov, atol=1e-12)

    def test_identity(self):
        f = sensing_factor(np.eye(3, dtype=complex))
        assert f.shape == (3, 3)
        assert np.allclose(f @ f.conj().T, np.eye(3), atol=1e-12)

    def test_projector_structure_from_converged_run(self, converged_k3):
        scenario, channel, inst, state = converged_k3
        sol = extract_rank_one(state.x, inst, channel=channel)
        f = sol.sensing_factor
        theta = np.trace(sol.sensing_cov).real / (scenario.n_tx - scenario.n_users)
        gram = f.conj().T @ f
        assert np.allclose(gram, theta * np.eye(f.shape[1]), atol=1e-8 * theta)
        assert np.allclose(f @ f.conj().T, sol.sensing_cov, atol=1e-8 * theta)

    def test_not_psd_raises(self):
        with pytest.raises(NotPSD):
            sensing_factor(np.diag([1.0, -0.5]))

    def test_small_negatives_clipped(self):
        f = sensing_factor(np.diag([1.0, -1e-12]))
        assert f.shape[1] == 1

