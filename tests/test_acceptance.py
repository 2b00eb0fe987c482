"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
measurements.
"""

import time

import numpy as np
import pytest

from crbeam.feasibility import compute_p_low
from crbeam.linalg import null_space_basis
from crbeam.pipeline import solve_scenario
from crbeam.rbal import SolverConfig, default_stepsize, initial_state, iterate, solve
from crbeam.recovery import extract_rank_one
from crbeam.reduction import build_reduced, check_degenerate, precompute_dual
from crbeam.scenario import Scenario, evaluate_crb_objective, evaluate_sinr, generate_channel
from crbeam.verification import kkt_residuals
from conftest import constrained_instance, make_scenario
from oracles import dense_dual_inverse_check, scalar_oracle_k1, trajectory_gap

from test_feasibility import dual_minpower_beamformers, orthogonal_channel


def report(name, detail):
    print(f"\nACCEPTANCE PASS  {name}: {detail}")


def iterative_solve(scenario, channel):
    """The pipeline's solver path without the isotropic screen.

    Returns (feasibility report, SolveReport, BeamformingSolution).
    """
    feasibility = compute_p_low(scenario, channel)
    instance = build_reduced(scenario, channel)
    dual = precompute_dual(instance, SolverConfig().delta)
    init = initial_state(instance, p_low=feasibility.p_low)
    state, rep = solve(instance, dual, SolverConfig(), init=init)
    return feasibility, rep, extract_rank_one(state.x, instance)


@pytest.fixture(scope="module")
def paper_default_runs():
    """Ten seeded iterative solves at the default operating point (Nt=64,
    K=8, P_T=20 dBm, Gamma=10 dB, sigma^2=0 dBm)."""
    scenario = make_scenario(64, 8, power=100.0, gamma=10.0, noise=1.0)
    runs = []
    for seed in range(10):
        channel = generate_channel(scenario, seed)
        runs.append((seed, channel, iterative_solve(scenario, channel)))
    return scenario, runs


def test_criterion_01_single_user_oracle():
    """Pipeline matches the independent K=1 oracle across regimes."""
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    for n_tx in (2, 4, 8, 16):
        for j in range(5):
            seed = 1000 * n_tx + j
            probe = make_scenario(n_tx, 1, power=1.0)
            channel = generate_channel(probe, seed)
            hnorm2 = float(np.linalg.norm(channel) ** 2)
            x_min = 10.0 / hnorm2
            # budgets below Nt * x_min bind the constraint, larger ones do not
            if j % 2 == 0:
                factor = min(1.5 + 0.5 * j, 0.75 * n_tx)
            else:
                factor = 3.0 * n_tx + j
            scenario = make_scenario(n_tx, 1, power=factor * x_min)
            x_opt, objective, oracle_degenerate = scalar_oracle_k1(scenario, channel)
            result = solve_scenario(scenario, channel)
            gap = abs(result.solution.objective - objective) / objective
            worst = max(worst, gap)
            if abs(x_opt - x_min) > 1e-6 * scenario.power_budget:  # away from the boundary
                assert result.degenerate == oracle_degenerate
            cases += 1
    elapsed = time.perf_counter() - t0
    assert cases == 20
    assert worst <= 1e-6
    assert elapsed < 10.0
    report("criterion 1 (K=1 oracle)", f"worst rel gap {worst:.2e} over 20 instances, {elapsed:.1f}s")


def test_criterion_02_structured_dual_inverse():
    """Assembled block inverse against the densely constructed normal matrix."""
    t0 = time.perf_counter()
    worst = 0.0
    for k in (1, 2, 3, 6):
        for delta in (1e-4, 1e-2):
            scenario = make_scenario(4 * k, k)
            channel = generate_channel(scenario, 17 * k + int(delta * 1e4))
            instance = build_reduced(scenario, channel)
            dual = precompute_dual(instance, delta)
            worst = max(worst, dense_dual_inverse_check(instance, dual, delta))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 30.0
    report("criterion 2 (dual inverse)", f"worst max-abs error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_trajectory_equivalence():
    """Structured sweep equals the literal dense recursion for 100 iterations."""
    t0 = time.perf_counter()
    worst = max(trajectory_gap(k, 100, seed=5 + k) for k in (1, 2, 4))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-7
    assert elapsed < 120.0
    report("criterion 3 (trajectory)", f"worst rel state diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_convergence_at_defaults(paper_default_runs):
    """The iterative solver converges below 1e-9 on every feasible
    default-scale instance (the pipeline settles these in closed form)."""
    scenario, runs = paper_default_runs
    for seed, channel, (feasibility, rep, solution) in runs:
        assert feasibility.feasible
        assert rep.status == "converged", f"seed {seed} did not converge"
        assert rep.final_violation < 1e-9
        margins = solution.sinr / scenario.sinr_thresholds - 1.0
        assert np.min(margins) >= -1e-6
        power = float(np.trace(solution.full_cov).real)
        assert abs(power - scenario.power_budget) <= 1e-8 * scenario.power_budget
    iters = [rep.iterations for _, _, (_, rep, _) in runs]
    report("criterion 4 (defaults)", f"10/10 converged, iterations {min(iters)}..{max(iters)}")


def test_criterion_05_structure_at_convergence():
    """Null-space sensing block and rank-one per-user covariances."""
    worst_leak = worst_gap = worst_ratio = 0.0
    for (n_tx, k, seed) in [(12, 3, 4), (16, 4, 5), (8, 2, 3), (24, 4, 9)]:
        scenario, channel = constrained_instance(n_tx, k, seed=seed, factor=3.0)
        result = solve_scenario(scenario, channel)
        assert result.solve_report.status == "converged"
        sol = result.solution
        w = np.column_stack(sol.w)
        theta = (scenario.power_budget - float(np.sum(np.abs(w) ** 2))) / (n_tx - k)
        scale = np.linalg.norm(channel, 2) * theta
        leak = float(np.max(np.abs(channel.conj().T @ sol.sensing_cov))) / scale
        u_c = null_space_basis(channel)
        gap = np.linalg.norm(sol.sensing_cov - theta * (u_c @ u_c.conj().T)) / (
            theta * np.sqrt(n_tx - k)
        )
        assert leak <= 1e-8
        assert gap <= 1e-6
        for i in range(k):
            w_mat = np.outer(sol.w[i], sol.w[i].conj())
            eigs = np.linalg.eigvalsh(w_mat)
            worst_ratio = max(worst_ratio, eigs[-2] / eigs[-1])
        worst_leak = max(worst_leak, leak)
        worst_gap = max(worst_gap, gap)
    assert worst_ratio <= 1e-8
    report(
        "criterion 5 (structure)",
        f"leak {worst_leak:.2e}, projector gap {worst_gap:.2e}, eig ratio {worst_ratio:.2e}",
    )


def test_criterion_06_objective_consistency():
    """Reduced split objective equals full-space tr(R^-1) at convergence."""
    worst = 0.0
    cases = [(32, 2, s) for s in (0, 1, 2, 3)] + [(32, 4, s) for s in (4, 5, 6)] + [
        (32, 8, s) for s in (7, 8, 9)
    ]
    for n_tx, k, seed in cases:
        scenario, channel = constrained_instance(n_tx, k, seed=seed, factor=3.0)
        result = solve_scenario(scenario, channel)
        assert result.solve_report.status == "converged"
        full = evaluate_crb_objective(result.solution.full_cov)
        gap = abs(full - result.reduced_objective) / full
        worst = max(worst, gap)
    assert worst <= 1e-6
    report("criterion 6 (objective consistency)", f"worst rel gap {worst:.2e} over 10 instances")


def test_criterion_07_antenna_count_independence():
    """Per-iteration cost flat in Nt; setup no worse than linear in Nt."""
    t0 = time.perf_counter()
    k = 8
    sweeps = 300
    per_iter = {}
    setup = {}
    for n_tx in (16, 64, 128):
        scenario = make_scenario(n_tx, k, power=100.0)
        channel = generate_channel(scenario, 1)

        best_setup = np.inf
        for _ in range(3):
            s0 = time.perf_counter()
            p_low = compute_p_low(scenario, channel).p_low
            instance = build_reduced(scenario, channel)
            dual = precompute_dual(instance, 1e-4)
            best_setup = min(best_setup, time.perf_counter() - s0)
        setup[n_tx] = best_setup

        tau = default_stepsize(instance)
        state = initial_state(instance, p_low)
        for _ in range(50):  # warm-up
            state = iterate(state, instance, dual, tau)
        s1 = time.perf_counter()
        for _ in range(sweeps):
            state = iterate(state, instance, dual, tau)
        per_iter[n_tx] = (time.perf_counter() - s1) / sweeps

    times = list(per_iter.values())
    ratio = max(times) / min(times)
    assert ratio < 2.0, f"per-iteration times {per_iter}"
    assert setup[128] <= setup[16] * (128 / 16) * 2.5 + 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    detail = ", ".join(f"Nt={nt}: {1e6 * t:.0f}us" for nt, t in per_iter.items())
    report(
        "criterion 7 (Nt independence)",
        f"per-iter ratio {ratio:.2f} ({detail}), "
        f"setup 16->{setup[16]*1e3:.1f}ms 128->{setup[128]*1e3:.1f}ms",
    )


def test_criterion_08_feasibility_oracle():
    """Closed-form p_low on orthogonal channels; the verdict flips exactly
    at the boundary, certified by a primal point that spends p_low."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for i in range(10):
        k = int(rng.integers(1, 5))
        n_tx = k + int(rng.integers(1, 5))
        norms = rng.uniform(0.2, 5.0, k)
        gammas = rng.uniform(0.5, 20.0, k)
        sc = Scenario(n_tx, k, 1e6, gammas, rng.uniform(0.5, 2.0))
        h = orthogonal_channel(n_tx, norms)
        rep = compute_p_low(sc, h)
        closed = float(np.sum(gammas * sc.noise_power / norms))
        worst = max(worst, abs(rep.p_low - closed) / closed)
    assert worst <= 1e-8

    flips = 0
    for seed in (0, 1, 2, 3, 4):
        probe = make_scenario(8, 3, power=1.0)
        channel = generate_channel(probe, seed)
        p_low = compute_p_low(probe, channel).p_low
        above = make_scenario(8, 3, power=1.001 * p_low)
        below = make_scenario(8, 3, power=0.999 * p_low)
        rep_above = compute_p_low(above, channel)
        rep_below = compute_p_low(below, channel)
        assert rep_above.feasible and not rep_below.feasible
        # exhibit an SINR-satisfying point within the feasible budget: the
        # dual fixed point's beamformers spend exactly p_low
        w, powers = dual_minpower_beamformers(above, channel, rep_above.lambdas)
        assert float(powers.sum()) <= above.power_budget
        assert float(powers.sum()) == pytest.approx(p_low, rel=1e-8)
        sinr = evaluate_sinr(channel, w, np.zeros((above.n_tx, above.n_tx)), above.noise_power)
        assert np.min(sinr / above.sinr_thresholds) >= 1.0 - 1e-8
        # below the boundary that same power is no longer affordable, and by
        # duality no cheaper SINR-satisfying point exists
        assert float(powers.sum()) > below.power_budget
        flips += 1
    report("criterion 8 (feasibility)", f"closed form {worst:.2e}; verdict flipped on {flips}/5 instances")


def test_criterion_09_degenerate_pipeline():
    """Closed-form witness for the canonical high-power single-user case."""
    scenario = Scenario(4, 1, 100.0, np.array([10.0]), 1.0)
    channel = np.array([[1.0], [1.0], [0.0], [0.0]], dtype=complex)
    result = solve_scenario(scenario, channel)
    assert result.degenerate
    sol = result.solution
    assert abs(sol.objective - 0.16) <= 1e-9
    iso = (scenario.power_budget / scenario.n_tx) * np.eye(4)
    assert np.linalg.norm(sol.full_cov - iso) <= 1e-8 * np.linalg.norm(iso)
    kkt = kkt_residuals(sol, scenario, channel)
    assert max(kkt["stationarity"], kkt["complementarity"], kkt["primal_sinr"], kkt["primal_power"]) <= 1e-8
    assert kkt["theta_psd_margin"] >= -1e-8
    assert np.max(np.abs(kkt["mu"])) <= 1e-8
    assert kkt["omega"] == pytest.approx((4.0 / 100.0) ** 2, rel=1e-8)
    report("criterion 9 (degenerate)", f"objective {sol.objective:.9f}, omega {kkt['omega']:.6e}")


def test_criterion_10_kkt_certification():
    """Residual certificates at converged optima; perturbed point fails."""
    worst = 0.0
    cases = [(8, 2, 3), (8, 2, 11), (12, 3, 4), (12, 3, 13), (12, 4, 7),
             (16, 4, 5), (16, 4, 15), (16, 3, 8), (10, 2, 21), (14, 4, 17)]
    for n_tx, k, seed in cases:
        scenario, channel = constrained_instance(n_tx, k, seed=seed, factor=2.5)
        result = solve_scenario(scenario, channel)
        assert result.solve_report.status == "converged"
        kkt = kkt_residuals(result.solution, scenario, channel)
        measured = max(
            kkt["stationarity"],
            kkt["complementarity"],
            kkt["mu_complementarity"],
            max(0.0, -kkt["theta_psd_margin"]),
            max(0.0, -kkt["mu_min"]),
            kkt["primal_sinr"],
            kkt["primal_power"],
        )
        worst = max(worst, measured)
    assert worst <= 1e-5

    # discriminative-power control on one of the instances
    scenario, channel = constrained_instance(8, 2, seed=3, factor=2.5)
    result = solve_scenario(scenario, channel)
    sol = result.solution
    from crbeam.recovery import BeamformingSolution

    perturbed = BeamformingSolution(
        v=sol.v,
        u_tilde=sol.u_tilde,
        m=0.5 * sol.m,
        theta=0.5 * sol.theta,
        sensing_factor=np.sqrt(0.5) * sol.sensing_factor,
        objective=0.0,
        sinr=sol.sinr,
    )
    control = kkt_residuals(perturbed, scenario, channel)["stationarity"]
    assert control > 1e-2
    report("criterion 10 (KKT)", f"worst residual {worst:.2e}; control residual {control:.2e}")


def test_criterion_11_isotropic_screen(paper_default_runs):
    """The screen's verdict agrees with the iterative solver's objective:
    isotropic iff the optimum reaches Nt^2 / P_T.  Every witness is KKT
    certified."""
    scenario, runs = paper_default_runs
    cases = [(scenario, channel, rep.objective) for _, channel, (_, rep, _) in runs]
    for n_tx, k, seed, factor in [(8, 2, 3, 3.0), (12, 3, 4, 3.0), (16, 4, 5, 3.0),
                                  (8, 2, 3, 1.5), (8, 2, 11, 1.5)]:
        constrained, channel = constrained_instance(n_tx, k, seed=seed, factor=factor)
        _, rep, _ = iterative_solve(constrained, channel)
        assert rep.status == "converged"
        cases.append((constrained, channel, rep.objective))

    verdicts = []
    worst_kkt = 0.0
    for sc, channel, objective in cases:
        verdict = check_degenerate(build_reduced(sc, channel))
        bound = sc.n_tx**2 / sc.power_budget
        assert verdict.isotropic is not None
        assert verdict.isotropic == (abs(objective - bound) <= 1e-6 * bound)
        verdicts.append(verdict.isotropic)
        if not verdict.isotropic:
            continue
        result = solve_scenario(sc, channel)
        assert result.degenerate and result.solve_report is None
        assert result.solution.objective == pytest.approx(bound, rel=1e-12)
        kkt = kkt_residuals(result.solution, sc, channel)
        measured = max(
            kkt["stationarity"],
            kkt["complementarity"],
            max(0.0, -kkt["theta_psd_margin"]),
            kkt["primal_sinr"],
            kkt["primal_power"],
        )
        assert measured <= 1e-8
        worst_kkt = max(worst_kkt, measured)
    assert verdicts == [True] * len(runs) + [False] * 5
    report(
        "criterion 11 (isotropic screen)",
        f"{len(verdicts)} verdicts match the solver; worst witness KKT residual {worst_kkt:.2e}",
    )
