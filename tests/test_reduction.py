import numpy as np
import pytest

from crbeam.feasibility import compute_p_low
from crbeam.linalg import null_space_basis
from crbeam.pipeline import solve_scenario
from crbeam.rbal import SolverConfig, initial_state, solve
from crbeam.reduction import (
    DELTA, IllConditionedDual, ReducedInstance, build_reduced, check_degenerate, precompute_dual,
)
from crbeam.scenario import Scenario, evaluate_crb_objective, generate_channel
from crbeam.verification import kkt_residuals
from conftest import constrained_instance, make_scenario, random_psd
from oracles import build_dense_system, scalar_oracle_k1


class TestBuildReduced:
    def test_identity_channel(self):
        sc = make_scenario(6, 3)
        h = np.eye(6, dtype=complex)[:, :3]
        inst = build_reduced(sc, h)
        for k in range(3):
            expect = np.zeros((3, 3))
            expect[k, k] = 1.0
            q = inst.h_tilde[:, k]
            assert np.allclose(np.outer(q, q.conj()), expect, atol=1e-12)
        assert np.allclose(np.abs(inst.h_tilde), np.eye(3), atol=1e-12)

    def test_single_user_scalar(self):
        sc = make_scenario(4, 1)
        h = np.array([[1.0], [1.0], [0.0], [0.0]], dtype=complex)
        inst = build_reduced(sc, h)
        assert inst.h_tilde.shape == (1, 1)
        assert abs(inst.h_tilde[0, 0]) ** 2 == pytest.approx(2.0, rel=1e-12)
        assert inst.rho[0] == pytest.approx(1.1, rel=1e-12)

    def test_trace_and_rank_one_identities(self):
        sc = make_scenario(16, 4)
        h = generate_channel(sc, 2)
        inst = build_reduced(sc, h)
        norms_sq = np.linalg.norm(h, axis=0) ** 2
        rng = np.random.default_rng(0)
        m = random_psd(rng, 4)
        for k in range(4):
            q = np.outer(inst.h_tilde[:, k], inst.h_tilde[:, k].conj())
            assert np.trace(q).real == pytest.approx(norms_sq[k], rel=1e-10)
            eigs = np.linalg.eigvalsh(q)
            assert eigs[-1] > 0 and np.all(eigs[:-1] < 1e-12 * eigs[-1])
            # tr(Q_k M) equals the quadratic form in the projected channel
            quad = np.vdot(inst.h_tilde[:, k], m @ inst.h_tilde[:, k])
            assert np.trace(q @ m) == pytest.approx(quad, rel=1e-12)

    def test_objective_correspondence_with_full_space(self):
        sc = make_scenario(12, 3, power=50.0)
        h = generate_channel(sc, 8)
        inst = build_reduced(sc, h)
        rng = np.random.default_rng(5)
        x = np.stack([random_psd(rng, 3, scale=3.0) for _ in range(3)])
        r_x = x.sum(axis=0)
        trace = float(np.trace(r_x).real)
        assert trace < sc.power_budget
        reduced = float(np.sum(1.0 / np.linalg.eigvalsh(r_x))) + (12 - 3) ** 2 / (
            sc.power_budget - trace
        )
        # materialize the full covariance with the null-space block filled
        theta = (sc.power_budget - trace) / (12 - 3)
        u_c = null_space_basis(h)
        full = inst.u_tilde @ r_x @ inst.u_tilde.conj().T + theta * (u_c @ u_c.conj().T)
        assert evaluate_crb_objective(full) == pytest.approx(reduced, rel=1e-10)


class TestPrecomputeDual:
    def test_single_user_scalars(self):
        sc = make_scenario(4, 1)
        h = np.array([[1.0], [1.0], [0.0], [0.0]], dtype=complex)
        dual = precompute_dual(build_reduced(sc, h))
        assert dual.alpha == pytest.approx(2.0 + DELTA)
        assert dual.beta == pytest.approx(2.0 + DELTA)
        assert dual.kappa == pytest.approx(1.0 / ((2.0 + DELTA) ** 2 - 1.0), rel=1e-14)

    def test_theta_entries(self):
        sc = Scenario(32, 8, 100.0, np.full(8, 10.0), 1.0)  # rho = 1.1
        h = generate_channel(sc, 3)
        dual = precompute_dual(build_reduced(sc, h))
        alpha, beta = 9.0 + DELTA, 2.0 + DELTA
        kappa = 1.0 / (alpha * beta - 1.0)
        assert dual.theta1 == pytest.approx(
            np.full(8, kappa * (1.0 - beta * 1.1 - beta)), rel=1e-12
        )
        assert dual.theta2 == pytest.approx(np.full(8, kappa * (alpha - 2.1)), rel=1e-12)

    def test_l_matrix_spd_and_real(self):
        """L is kept only as its Cholesky factor: real, lower-triangular,
        positive diagonal, so F F^T is symmetric positive definite."""
        sc = make_scenario(16, 5)
        h = generate_channel(sc, 4)
        dual = precompute_dual(build_reduced(sc, h))
        ell = dual.l_factor
        assert np.isrealobj(ell)
        assert np.array_equal(ell, np.tril(ell))
        assert np.all(np.diag(ell) > 0)

    def test_delta_is_not_an_argument(self):
        sc = make_scenario(8, 2)
        inst = build_reduced(sc, generate_channel(sc, 0))
        with pytest.raises(TypeError):
            precompute_dual(inst, 1e-2)

    @pytest.mark.parametrize("n_tx, n_users", [(64, 8), (12, 3)])
    def test_l_factor_reproduces_l_matrix(self, n_tx, n_users):
        """F F^T is the Schur complement A - B C^-1 B^H of the dense normal
        matrix D D^H + delta I, with A its leading K x K block."""
        sc = make_scenario(n_tx, n_users)
        inst = build_reduced(sc, generate_channel(sc, 1))
        dual = precompute_dual(inst)
        normal = build_dense_system(inst).normal
        k = n_users
        a, b, c = normal[:k, :k], normal[:k, k:], normal[k:, k:]
        schur = a - b @ np.linalg.solve(c, b.conj().T)
        ell = dual.l_factor
        assert np.array_equal(ell, np.tril(ell))
        err = np.linalg.norm(ell @ ell.T - schur) / np.linalg.norm(schur)
        assert err <= 1e-13

    def test_failed_cholesky_is_ill_conditioned_dual(self, monkeypatch):
        sc = make_scenario(8, 2)
        inst = build_reduced(sc, generate_channel(sc, 0))

        def fail(_):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        with pytest.raises(IllConditionedDual, match="delta=0.0001"):
            precompute_dual(inst)


class TestDegeneracy:
    """The isotropic screen: verdicts, witnesses and their certificates."""

    def canonical_channel(self):
        return np.array([[1.0], [1.0], [0.0], [0.0]], dtype=complex)  # ||h||^2 = 2

    def witness(self, sc, h, verdict):
        """Full-space beamformers and total covariance of an isotropic verdict."""
        w = build_reduced(sc, h).u_tilde @ verdict.v
        sensing = (sc.power_budget / sc.n_tx) * np.eye(sc.n_tx) - w @ w.conj().T
        return w, sensing, w @ w.conj().T + sensing

    def test_high_power_single_user_is_degenerate(self):
        sc = Scenario(4, 1, 100.0, np.array([10.0]), 1.0)
        h = self.canonical_channel()
        verdict = check_degenerate(build_reduced(sc, h))
        assert verdict.isotropic and verdict.steps == 0
        w, sensing, full = self.witness(sc, h, verdict)
        # b = (25 * 2 + 1) / 1.1 and |h^H w|^2 = b
        assert abs(np.vdot(h[:, 0], w[:, 0])) ** 2 == pytest.approx(51.0 / 1.1, rel=1e-12)
        assert np.allclose(full, 25.0 * np.eye(4), atol=1e-10)
        assert np.linalg.eigvalsh(sensing)[0] > -1e-12
        assert evaluate_crb_objective(full) == pytest.approx(0.16, rel=1e-12)

    def test_low_power_single_user_not_degenerate(self):
        sc = Scenario(4, 1, 8.0, np.array([10.0]), 1.0)
        verdict = check_degenerate(build_reduced(sc, self.canonical_channel()))
        assert verdict.isotropic is False and verdict.v is None

    @pytest.mark.parametrize("n_tx", [2, 4, 8, 16])
    def test_single_user_matches_oracle(self, n_tx):
        # the verdict flips at P_T = Nt * x_min; budgets 20% either side
        h = generate_channel(make_scenario(n_tx, 1), 300 + n_tx)
        x_min = 10.0 / float(np.linalg.norm(h) ** 2)
        verdicts = []
        for factor in (0.8 * n_tx, 1.2 * n_tx):
            sc = make_scenario(n_tx, 1, power=factor * x_min)
            _, _, oracle_isotropic = scalar_oracle_k1(sc, h)
            verdicts.append(check_degenerate(build_reduced(sc, h)).isotropic)
            assert verdicts[-1] == oracle_isotropic
        assert verdicts == [False, True]

    def test_near_boundary_budget_not_isotropic(self):
        sc, h = constrained_instance(16, 4, seed=5, factor=1.5)
        assert check_degenerate(build_reduced(sc, h)).isotropic is False

    def test_orthogonal_users_high_power_isotropic(self):
        sc = Scenario(6, 2, 1e6, np.array([0.1, 0.1]), 1.0)
        h = np.eye(6, dtype=complex)[:, :2]
        assert check_degenerate(build_reduced(sc, h)).isotropic
        result = solve_scenario(sc, h)
        assert result.degenerate
        kkt = kkt_residuals(result.solution, sc, h)
        assert max(kkt["stationarity"], kkt["complementarity"], kkt["primal_sinr"], kkt["primal_power"]) <= 1e-8
        assert kkt["theta_psd_margin"] >= -1e-8
        assert kkt["omega"] == pytest.approx((6.0 / 1e6) ** 2, rel=1e-8)

    def nearly_parallel_channel(self):
        # sub-0dB thresholds, nearly aligned channels and a generous budget
        rng = np.random.default_rng(12)
        base = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        return np.column_stack([
            base.ravel(),
            base.ravel() + 0.05 * (rng.standard_normal(4) + 1j * rng.standard_normal(4)),
        ])

    def test_scale_consistency(self):
        # h -> c h with P_T -> P_T / c^2 rescales both sides of the test alike
        sc = Scenario(4, 2, 400.0, np.array([0.5, 0.5]), 1.0)
        h = self.nearly_parallel_channel()
        c = 3.0
        sc_scaled = Scenario(4, 2, 400.0 / c**2, np.array([0.5, 0.5]), 1.0)
        v1 = check_degenerate(build_reduced(sc, h)).isotropic
        v2 = check_degenerate(build_reduced(sc_scaled, c * h)).isotropic
        assert v1 == v2
        # and the isotropic branch is actually exercised by this geometry
        assert v1

    def test_witness_sinr_equalities(self):
        sc = Scenario(4, 2, 400.0, np.array([0.5, 0.5]), 1.0)
        h = self.nearly_parallel_channel()
        verdict = check_degenerate(build_reduced(sc, h))
        assert verdict.isotropic
        w, sensing, full = self.witness(sc, h, verdict)
        assert np.trace(full).real == pytest.approx(sc.power_budget, rel=1e-12)
        assert np.linalg.eigvalsh(sensing)[0] >= -1e-12 * sc.power_budget
        rho = 1.0 + 1.0 / sc.sinr_thresholds
        for k in range(2):
            q_k = np.outer(h[:, k], h[:, k].conj())
            lhs = rho[k] * np.trace(q_k @ np.outer(w[:, k], w[:, k].conj())) - np.trace(q_k @ full)
            assert lhs.real == pytest.approx(sc.noise_power, rel=1e-8)


def test_solver_invariant_to_basis_choice(solved_k3):
    """Conjugating the reduced data by a unitary basis change leaves the
    optimal objective unchanged."""
    scenario, channel, result = solved_k3
    inst = build_reduced(scenario, channel)
    rng = np.random.default_rng(77)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    rotated = ReducedInstance(
        u_tilde=inst.u_tilde @ q,
        h_tilde=q.conj().T @ inst.h_tilde,
        rho=inst.rho,
        power_budget=inst.power_budget,
        noise_power=inst.noise_power,
        n_tx=inst.n_tx,
        n_users=inst.n_users,
    )
    dual = precompute_dual(rotated)
    p_low = compute_p_low(scenario, channel).p_low
    _, report = solve(rotated, dual, SolverConfig(), initial_state(rotated, p_low))
    assert report.status == "converged"
    assert report.objective == pytest.approx(result.solve_report.objective, rel=1e-8)
