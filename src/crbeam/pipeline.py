"""End-to-end orchestration: feasibility -> isotropic screen -> solver -> recovery."""

import time
from dataclasses import dataclass

import numpy as np

from .feasibility import FeasibilityReport, compute_p_low
from .rbal import SolveReport, SolverConfig, initial_state, solve
from .recovery import BeamformingSolution, extract_rank_one, range_solution
from .reduction import build_reduced, check_degenerate, precompute_dual


@dataclass
class PipelineResult:
    feasibility: FeasibilityReport
    degenerate: bool      # True: the isotropic closed form, no solver run
    solution: BeamformingSolution | None
    solve_report: SolveReport | None
    reduced_objective: float | None
    setup_seconds: float
    iter_seconds: float


def solve_scenario(scenario, channel, config=None):
    """Feasibility check, isotropic screen, then closed form or iterative solve.

    The range-space reduction comes first: its SVD is the only Nt x K one per
    solve and checks the channel's rank; feasibility reads the K x K reduced
    channel.  Infeasible scenarios return early with solution=None.  Setup
    timing covers everything up to (and excluding) the solver loop.
    """
    config = config or SolverConfig()
    t0 = time.perf_counter()
    instance = build_reduced(scenario, channel)
    report = compute_p_low(scenario, instance.h_tilde)
    if not report.feasible:
        elapsed = time.perf_counter() - t0
        return PipelineResult(report, False, None, None, None, elapsed, 0.0)

    verdict = check_degenerate(instance)
    if verdict.isotropic:
        # the screen's witness: total covariance (P_T / Nt) I, objective Nt^2 / P_T
        c = scenario.power_budget / scenario.n_tx
        solution = range_solution(instance, verdict.v, c * np.eye(scenario.n_users), c)
        elapsed = time.perf_counter() - t0
        return PipelineResult(report, True, solution, None, solution.objective, elapsed, 0.0)

    dual = precompute_dual(instance)
    init = initial_state(instance, p_low=report.p_low)
    setup_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    state, solve_report = solve(instance, dual, config, init=init)
    iter_seconds = time.perf_counter() - t1

    solution = extract_rank_one(state.x, instance)
    return PipelineResult(
        report, False, solution, solve_report, solve_report.objective, setup_seconds, iter_seconds
    )
