"""End-to-end orchestration: isotropic screen -> witness, or feasibility -> solver -> recovery."""

import time
from dataclasses import dataclass

import numpy as np

from .feasibility import FeasibilityReport, compute_p_low
from .rbal import SolveReport, SolverConfig, initial_state, solve
from .recovery import BeamformingSolution, extract_rank_one, range_solution
from .reduction import build_reduced, check_degenerate, precompute_dual


@dataclass
class PipelineResult:
    """One solve: the feasibility report, then the answer when there is one.

    feasibility is compute_p_low's report, or, when the isotropic screen's
    witness settled the instance, a feasible report with p_low None and 0
    iterations: no probe ran.  solution is None for an infeasible budget;
    off the iterative path solve_report is None and iter_seconds 0.
    """

    feasibility: FeasibilityReport
    degenerate: bool      # True: the isotropic closed form, no solver run
    solution: BeamformingSolution | None
    solve_report: SolveReport | None
    reduced_objective: float | None
    setup_seconds: float
    iter_seconds: float


def solve_scenario(scenario, channel, config=None):
    """Isotropic screen, then the closed form, or feasibility and the iterative solve.

    The range-space reduction comes first: its SVD is the only Nt x K one per
    solve and checks the channel's rank.  An isotropic verdict returns the
    closed form and runs no p_low probe: the screen's witness meets every SINR
    target at tr R = P_T, which proves the budget feasible.  Otherwise
    compute_p_low reads the K x K reduced channel, an infeasible budget returns
    early with solution=None, and R-BAL starts from p_low.  Setup timing covers
    everything up to (and excluding) the solver loop.
    """
    config = config or SolverConfig()
    t0 = time.perf_counter()
    instance = build_reduced(scenario, channel)
    verdict = check_degenerate(instance)
    if verdict.isotropic:
        # the screen's witness: total covariance (P_T / Nt) I, objective Nt^2 / P_T
        c = scenario.power_budget / scenario.n_tx
        solution = range_solution(instance, verdict.v, c * np.eye(scenario.n_users), c)
        report = FeasibilityReport(None, None, feasible=True, borderline=False, iterations=0, residual=None)
        elapsed = time.perf_counter() - t0
        return PipelineResult(report, True, solution, None, solution.objective, elapsed, 0.0)

    report = compute_p_low(scenario, instance.h_tilde)
    if not report.feasible:
        elapsed = time.perf_counter() - t0
        return PipelineResult(report, False, None, None, None, elapsed, 0.0)

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
