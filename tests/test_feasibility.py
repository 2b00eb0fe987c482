import numpy as np
import pytest

from crbeam import feasibility
from crbeam.feasibility import FixedPointDiverged, compute_p_low, p_low_from_gram
from crbeam.linalg import RankDeficientChannel
from crbeam.pipeline import solve_scenario
from crbeam.scenario import Scenario, evaluate_sinr, generate_channel
from conftest import make_scenario


def orthogonal_channel(n_tx, norms_sq):
    h = np.zeros((n_tx, len(norms_sq)), dtype=complex)
    for k, nsq in enumerate(norms_sq):
        h[k, k] = np.sqrt(nsq)
    return h


def dual_minpower_beamformers(scenario, channel, lambdas):
    """Independent primal construction from the dual fixed point.

    Downlink directions are the uplink MMSE vectors under powers lambda; the
    downlink powers solve the K x K system making every SINR tight.  By
    strong duality the total power equals p_low, which is what the tests
    exploit as a certificate.
    """
    n_tx = scenario.n_tx
    k = scenario.n_users
    cov = scenario.noise_power * np.eye(n_tx) + (channel * lambdas) @ channel.conj().T
    dirs = np.linalg.solve(cov, channel)
    dirs = dirs / np.linalg.norm(dirs, axis=0)
    gains = np.abs(channel.conj().T @ dirs) ** 2
    m = -gains.copy()
    m[np.arange(k), np.arange(k)] = gains.diagonal() / scenario.sinr_thresholds
    powers = np.linalg.solve(m, scenario.noise_power * np.ones(k))
    return dirs * np.sqrt(powers), powers


def fixed_point_reference(gram, thresholds, noise, tol=1e-13, max_iterations=20000):
    """Plain standard-interference iteration lambda <- T(lambda) from zero.

    T_k(lambda) = noise / (rho_k g_k^H (G + G diag(lambda / noise) G)^-1 g_k)
    with g_k the k-th column of the Gram matrix G.  Starting from zero the
    iterates increase monotonically to the fixed point, but only linearly.
    """
    rho = 1.0 + 1.0 / np.asarray(thresholds, dtype=float)
    lam = np.zeros(gram.shape[0])
    for _ in range(max_iterations):
        m = gram + gram @ ((lam / noise)[:, None] * gram)
        quad = np.array([np.vdot(g, np.linalg.solve(m, g)).real for g in gram.T])
        new = noise / (rho * quad)
        done = np.max(np.abs(new - lam) / new) <= tol
        lam = new
        if done:
            return lam
    raise AssertionError("reference fixed point did not converge")


def random_gram(n_tx, n_users, seed):
    h = generate_channel(make_scenario(n_tx, n_users), seed)
    return h.conj().T @ h


def correlated_channel(eps):
    """12 x 3 seed-1 channel with h_3 = h_1 + eps ||h_1|| g, g a fixed unit vector."""
    h = generate_channel(make_scenario(12, 3), 1)
    rng = np.random.default_rng(123)
    g = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    h[:, 2] = h[:, 0] + eps * np.linalg.norm(h[:, 0]) * g / np.linalg.norm(g)
    return h


def assert_certified(scenario, channel, report, rel=1e-6):
    """Every lambda_k > 0, and the dual-derived beamformers spend p_low."""
    assert np.all(report.lambdas > 0)
    _, powers = dual_minpower_beamformers(scenario, channel, report.lambdas)
    assert float(powers.sum()) == pytest.approx(report.p_low, rel=rel)


class TestNewton:
    """p_low_from_gram against the plain fixed point and its own invariants."""

    SHAPES = [(8, 3, 0), (8, 3, 4), (64, 8, 1), (1024, 8, 2)]

    @pytest.mark.parametrize("n_tx, n_users, seed", SHAPES)
    def test_matches_plain_fixed_point(self, n_tx, n_users, seed):
        gram = random_gram(n_tx, n_users, seed)
        thresholds = np.full(n_users, 10.0)
        lam, _, _ = p_low_from_gram(gram, thresholds, 1.0)
        ref = fixed_point_reference(gram, thresholds, 1.0)
        assert np.max(np.abs(lam - ref) / ref) <= 1e-10

    @pytest.mark.parametrize("n_tx, n_users, seed", SHAPES)
    def test_few_steps_to_full_accuracy(self, n_tx, n_users, seed):
        gram = random_gram(n_tx, n_users, seed)
        _, iterations, residual = p_low_from_gram(gram, np.full(n_users, 10.0), 1.0)
        assert iterations <= 12
        assert residual <= 1e-12

    @pytest.mark.parametrize("channel_scale", [1e-4, 1e4])
    @pytest.mark.parametrize("noise", [1e-6, 1e6])
    def test_exact_scaling(self, channel_scale, noise):
        """lambda(a H, s sigma^2) = (s / a^2) lambda(H, sigma^2): every iterate
        scales the same way, so the step count is unchanged too."""
        sc = Scenario(8, 3, 100.0, np.array([10.0, 5.0, 8.0]), 1.0)
        h = generate_channel(sc, 7)
        base = compute_p_low(sc, h)
        scaled_sc = Scenario(8, 3, 100.0, sc.sinr_thresholds, noise)
        scaled = compute_p_low(scaled_sc, channel_scale * h)
        factor = noise / channel_scale**2
        assert scaled.lambdas == pytest.approx(factor * base.lambdas, rel=1e-12)
        assert scaled.iterations == base.iterations

    def test_correlated_users(self):
        """At lambda = 0 the Jacobian's spectral radius exceeds 1 when users'
        channels are strongly correlated, so the first Newton point leaves the
        positive orthant; the iterates must stay positive and still converge."""
        h = generate_channel(make_scenario(8, 3), 3)
        h[:, 2] = h[:, 0] + 0.3 * h[:, 2]
        gram = h.conj().T @ h
        thresholds = np.full(3, 10.0)
        rho = 1.0 + 1.0 / thresholds
        jac0 = np.abs(gram) ** 2 / (rho * gram.diagonal().real ** 2)[:, None]
        assert np.max(np.abs(np.linalg.eigvals(jac0))) > 1.0
        lam, iterations, residual = p_low_from_gram(gram, thresholds, 1.0)
        assert np.all(lam > 0) and residual <= 1e-12 and iterations <= 20
        ref = fixed_point_reference(gram, thresholds, 1.0)
        assert np.max(np.abs(lam - ref) / ref) <= 1e-10

    def test_ill_conditioned_channel(self):
        """One user 1e8 weaker than the others: channel condition number ~1e8,
        Gram matrix ~1e16.  A is formed without inverting G."""
        sc = Scenario(8, 3, 100.0, np.array([10.0, 5.0, 8.0]), 1.3)
        h = generate_channel(sc, 2)
        h[:, 1] *= 1e-8
        assert 1e7 <= np.linalg.cond(h) <= 1e9
        rep = compute_p_low(sc, h)
        assert rep.residual <= 1e-12 and rep.iterations <= 12
        ref = fixed_point_reference(h.conj().T @ h, sc.sinr_thresholds, sc.noise_power)
        assert np.max(np.abs(rep.lambdas - ref) / ref) <= 1e-10
        w, powers = dual_minpower_beamformers(sc, h, rep.lambdas)
        assert float(powers.sum()) == pytest.approx(rep.p_low, rel=1e-8)
        sinr = evaluate_sinr(h, w, np.zeros((sc.n_tx, sc.n_tx)), sc.noise_power)
        assert np.max(np.abs(sinr / sc.sinr_thresholds - 1.0)) < 1e-8

    @pytest.mark.parametrize("eps", [3.2e-3, 5.6e-4, 1e-4, 1e-7, 1e-8])
    def test_rounding_floor_of_correlated_users(self, eps):
        """correlated_channel(eps) has cond(H) ~7.5e2, 4.3e3, 2.4e4, 2.4e7 and
        2.4e8: rounding stalls Newton above NEWTON_TOL.  The first three return
        their best iterate, within the rounding floor cond(G) * eps_mach and
        STALL_TOL, with p_low certified to 10 times that floor; the last two
        have no iterate within STALL_TOL and raise."""
        sc = make_scenario(12, 3)
        h = correlated_channel(eps)
        if eps < 1e-5:
            with pytest.raises(FixedPointDiverged):
                compute_p_low(sc, h)
            return
        gram_eigs = np.linalg.eigvalsh(h.conj().T @ h)
        floor = gram_eigs[-1] / gram_eigs[0] * np.finfo(float).eps
        rep = compute_p_low(sc, h)
        assert feasibility.NEWTON_TOL < rep.residual <= min(floor, feasibility.STALL_TOL)
        assert_certified(sc, h, rep, rel=min(1e-6, 10 * floor))

    def test_correlated_family_is_certified_or_raises(self):
        """Over 121 sizes eps = 1e-2 .. 3e-10 (cond(H) 2.4e2 .. 7.6e9, all
        inside the 1e-10 rank test) every p_low returned is certified, and
        every other member raises FixedPointDiverged: no negative or stalled
        value escapes."""
        sc = make_scenario(12, 3)
        returned = 0
        for eps in np.logspace(-2, -9.5, 121):
            h = correlated_channel(eps)
            try:
                rep = compute_p_low(sc, h)
            except FixedPointDiverged:
                continue
            assert rep.residual <= feasibility.STALL_TOL
            assert_certified(sc, h, rep)
            returned += 1
        assert returned >= 25  # measured: 28, down to eps = 1e-4

    def test_near_singular_channel_raises(self):
        """h_3 = h_1 + 1e-8 g with no normalization (sigma_min / sigma_max
        3.9e-9, inside the rank test): Newton stalls on iterates with some
        lambda_k < 0, which are never returned."""
        sc = make_scenario(12, 3)
        h = generate_channel(sc, 1)
        h[:, 2] = h[:, 0] + 1e-8 * generate_channel(sc, 2)[:, 0]
        s = np.linalg.svd(h, compute_uv=False)
        assert 1e-10 < s[-1] / s[0] < 1e-8
        with pytest.raises(FixedPointDiverged):
            compute_p_low(sc, h)

    def test_iteration_cap_raises(self, monkeypatch):
        gram = random_gram(8, 3, 0)
        monkeypatch.setattr(feasibility, "MAX_NEWTON_STEPS", 1)
        with pytest.raises(FixedPointDiverged):
            p_low_from_gram(gram, np.full(3, 10.0), 1.0)


class TestPipeline:
    """solve_scenario reads p_low off the K x K reduced channel U^H H."""

    @pytest.mark.parametrize("n_tx, n_users, seed", TestNewton.SHAPES)
    def test_reduced_channel_gives_the_same_p_low(self, n_tx, n_users, seed):
        # a 1 uW budget is infeasible, so the pipeline stops after feasibility
        sc = make_scenario(n_tx, n_users, power=1e-3)
        h = generate_channel(sc, seed)
        result = solve_scenario(sc, h)
        assert not result.feasibility.feasible
        direct = compute_p_low(sc, h).p_low
        assert abs(result.feasibility.p_low - direct) <= 1e-14 * direct

    @pytest.mark.parametrize("shape", [(6, 2), (12, 2), (8, 3)], ids=["6x2", "12x2", "8x3"])
    def test_channel_of_another_shape_raises(self, shape):
        """A channel that does not match its scenario is rejected, not solved
        for the wrong array; compute_p_low needs only one column per user,
        because the pipeline passes it U^H H."""
        sc = Scenario(8, 2, 100.0, 10.0, 1.0)
        rng = np.random.default_rng(0)
        h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        with pytest.raises(ValueError, match="channel shape"):
            solve_scenario(sc, h)
        if shape[1] == sc.n_users:
            assert compute_p_low(sc, h).p_low > 0
        else:
            with pytest.raises(ValueError, match="channel shape"):
                compute_p_low(sc, h)

    def test_rank_deficient_channel_raises(self):
        sc = make_scenario(12, 3)
        h = generate_channel(sc, 1)
        h[:, 2] = h[:, 0] + 1e-12 * h[:, 1]
        with pytest.raises(RankDeficientChannel):
            solve_scenario(sc, h)


class TestClosedForms:
    def test_two_orthogonal_users(self):
        sc = Scenario(4, 2, 100.0, np.array([10.0, 10.0]), 1.0)
        h = orthogonal_channel(4, [1.0, 4.0])
        rep = compute_p_low(sc, h)
        assert rep.lambdas == pytest.approx([10.0, 2.5], rel=1e-10)
        assert rep.p_low == pytest.approx(12.5, rel=1e-10)
        assert rep.feasible

    def test_single_user(self):
        sc = Scenario(4, 1, 100.0, np.array([10.0]), 1.0)
        h = orthogonal_channel(4, [2.0])
        assert compute_p_low(sc, h).p_low == pytest.approx(5.0, rel=1e-10)

    def test_channel_scaling(self):
        sc = make_scenario(8, 3)
        h = generate_channel(sc, 11)
        base = compute_p_low(sc, h)
        scaled = compute_p_low(sc, 2.0 * h)
        assert scaled.lambdas == pytest.approx(base.lambdas / 4.0, rel=1e-9)


class TestInvariants:
    def test_report_consistency(self):
        sc = make_scenario(8, 3)
        h = generate_channel(sc, 0)
        rep = compute_p_low(sc, h)
        assert rep.p_low == pytest.approx(float(np.sum(rep.lambdas)), rel=1e-14)
        assert rep.residual <= 1e-10
        assert rep.feasible == (sc.power_budget >= (1 - 1e-9) * rep.p_low)

    def test_threshold_monotonicity(self):
        h = generate_channel(make_scenario(8, 3), 21)
        base = compute_p_low(make_scenario(8, 3, gamma=10.0), h).p_low
        for k in range(3):
            gammas = np.full(3, 10.0)
            gammas[k] = 14.0
            sc = Scenario(8, 3, 100.0, gammas, 1.0)
            assert compute_p_low(sc, h).p_low > base

    def test_permutation_invariance(self):
        gammas = np.array([10.0, 4.0, 7.0])
        sc = Scenario(8, 3, 100.0, gammas, 1.0)
        h = generate_channel(sc, 33)
        rep = compute_p_low(sc, h)
        perm = np.array([2, 0, 1])
        sc_p = Scenario(8, 3, 100.0, gammas[perm], 1.0)
        rep_p = compute_p_low(sc_p, h[:, perm])
        assert rep_p.p_low == pytest.approx(rep.p_low, rel=1e-10)
        assert rep_p.lambdas == pytest.approx(rep.lambdas[perm], rel=1e-9)

    def test_single_user_lower_bound(self):
        for seed in range(5):
            sc = make_scenario(8, 3)
            h = generate_channel(sc, 40 + seed)
            rep = compute_p_low(sc, h)
            bound = np.max(
                sc.sinr_thresholds * sc.noise_power / np.linalg.norm(h, axis=0) ** 2
            )
            assert rep.p_low >= bound - 1e-12


class TestDualityCertificate:
    """The fixed point's value is achievable: the dual-derived beamformers
    spend exactly p_low and meet every SINR threshold with equality."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_certificate(self, seed):
        sc = Scenario(8, 3, 100.0, np.array([10.0, 5.0, 8.0]), 1.3)
        h = generate_channel(sc, seed)
        rep = compute_p_low(sc, h)
        w, powers = dual_minpower_beamformers(sc, h, rep.lambdas)
        assert np.all(powers > 0)
        assert float(powers.sum()) == pytest.approx(rep.p_low, rel=1e-8)
        sinr = evaluate_sinr(h, w, np.zeros((sc.n_tx, sc.n_tx)), sc.noise_power)
        assert np.max(np.abs(sinr / sc.sinr_thresholds - 1.0)) < 1e-8
