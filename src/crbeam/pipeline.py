"""End-to-end orchestration: feasibility -> isotropic screen -> solver -> recovery."""

import time
from dataclasses import dataclass

import numpy as np

from .feasibility import FeasibilityReport, compute_p_low
from .rbal import SolveReport, SolverConfig, initial_state, objective_value, solve
from .recovery import BeamformingSolution, extract_rank_one, sensing_factor
from .reduction import build_reduced, check_degenerate, precompute_dual
from .scenario import evaluate_sinr


@dataclass
class PipelineResult:
    feasibility: FeasibilityReport
    degenerate: bool      # True: the isotropic closed form, no solver run
    solution: BeamformingSolution | None
    solve_report: SolveReport | None
    reduced_objective: float | None
    setup_seconds: float
    iter_seconds: float


def witness_solution(scenario, channel, instance, v, materialize_full=True):
    """BeamformingSolution for the isotropic optimum certified by the screen.

    The beamformers are w_k = u_tilde v_k and the sensing covariance fills the
    total covariance up to (P_T / Nt) I, whose objective is Nt^2 / P_T.
    """
    n_tx = scenario.n_tx
    c = scenario.power_budget / n_tx
    w = instance.u_tilde @ v
    sensing_cov = -(w @ w.conj().T)
    sensing_cov.flat[:: n_tx + 1] += c
    return BeamformingSolution(
        w=list(w.T),
        sensing_cov=sensing_cov,
        sensing_factor=sensing_factor(sensing_cov),
        full_cov=c * np.eye(n_tx) if materialize_full else None,
        objective=n_tx**2 / scenario.power_budget,
        sinr=evaluate_sinr(channel, w, sensing_cov, scenario.noise_power),
    )


def solve_scenario(scenario, channel, config=None, materialize_full=True):
    """Feasibility check, isotropic screen, then closed form or iterative solve.

    The range-space reduction comes first: its SVD is the only one per solve
    and also checks the channel's rank.  Infeasible scenarios return early with
    solution=None.  Setup timing covers everything up to (and excluding) the
    solver loop.
    """
    config = config or SolverConfig()
    t0 = time.perf_counter()
    instance = build_reduced(scenario, channel)
    report = compute_p_low(scenario, channel, check_rank=False)
    if not report.feasible:
        elapsed = time.perf_counter() - t0
        return PipelineResult(report, False, None, None, None, elapsed, 0.0)

    verdict = check_degenerate(scenario, channel, instance)
    if verdict.isotropic:
        solution = witness_solution(scenario, channel, instance, verdict.v, materialize_full)
        elapsed = time.perf_counter() - t0
        return PipelineResult(report, True, solution, None, solution.objective, elapsed, 0.0)

    dual = precompute_dual(instance, config.delta)
    init = initial_state(instance, p_low=report.p_low)
    setup_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    state, solve_report = solve(instance, dual, config, init=init)
    iter_seconds = time.perf_counter() - t1

    solution = extract_rank_one(
        state.x, instance, channel=channel, materialize_full=materialize_full
    )
    reduced_objective = objective_value(state, instance)
    return PipelineResult(
        feasibility=report,
        degenerate=False,
        solution=solution,
        solve_report=solve_report,
        reduced_objective=reduced_objective,
        setup_seconds=setup_seconds,
        iter_seconds=iter_seconds,
    )
