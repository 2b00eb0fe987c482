"""Output check for one solve, run outside the timed window.

A solve passes when the solver converged, the recovered beamformers meet
every SINR target and the power budget, the reduced objective agrees with
tr(R^-1) of the full covariance, and optimality is certified:

- tr(R^-1) >= Nt^2 / tr(R) >= Nt^2 / P_T for every feasible R, so an
  objective within BOUND_TOL of Nt^2 / P_T is optimal to that tolerance.
  This certifies the isotropic optima cheaply and exactly.
- Otherwise the KKT residuals of `crbeam.verification.kkt_residuals` must
  stay below KKT_TOL, with the SINR multipliers judged against the
  stationarity scale 1/lambda_min(R)^2 + omega.  The function's own
  `mu_min` and `mu_complementarity` divide by max|mu| instead, which reads
  -1.0 on correct isotropic optima whose multipliers are ~1e-10.
"""

import numpy as np

from crbeam.scenario import evaluate_crb_objective
from crbeam.verification import kkt_residuals

SINR_TOL = 1e-6
POWER_TOL = 1e-8
GAP_TOL = 1e-6
BOUND_TOL = 1e-6
KKT_TOL = 1e-5


def sinr(channel, w, sensing_cov, noise):
    """Per-user SINR of beamformer columns w, recomputed from the channel.

    Kept apart from crbeam.scenario.evaluate_sinr, which recovery uses to
    report the solution's own SINRs, so the check does not share that code.
    """
    gains = np.abs(channel.conj().T @ w) ** 2  # gains[k, i] = |h_k^H w_i|^2
    signal = np.diag(gains)
    sensing = np.einsum("ik,ij,jk->k", channel.conj(), sensing_cov, channel).real
    return signal / (gains.sum(axis=1) - signal + sensing + noise)


def kkt_residual(sol, scenario, channel):
    """Largest criterion-10 residual, multipliers scaled by the stationarity scale."""
    kkt = kkt_residuals(sol, scenario, channel)
    scale = 1.0 / np.linalg.eigvalsh(sol.full_cov)[0] ** 2 + kkt["omega"]
    mu = kkt["mu"]
    slack = sinr(channel, np.column_stack(sol.w), sol.sensing_cov, scenario.noise_power)
    slack = slack / scenario.sinr_thresholds - 1.0
    return max(
        kkt["stationarity"],
        kkt["complementarity"],
        float(np.max(np.abs(mu) * np.abs(slack))) / scale,
        -kkt["theta_psd_margin"],
        -float(np.min(mu)) / scale,
        kkt["primal_sinr"],
        kkt["primal_power"],
    )


def check_solve(instance, result, tol_violation):
    """Return (certificate, problems); the solve passes when problems is empty."""
    scenario, channel = instance.scenario, instance.channel
    if result.solution is None:
        return None, ["no solution (budget judged infeasible)"]
    problems = []
    if not result.degenerate:
        report = result.solve_report
        if report.status != "converged":
            problems.append(f"status {report.status} after {report.iterations} sweeps")
        if not report.final_violation <= tol_violation:
            problems.append(f"violation {report.final_violation:.2e} > {tol_violation:.0e}")

    sol = result.solution
    w = np.column_stack(sol.w)
    ratio = sinr(channel, w, sol.sensing_cov, scenario.noise_power) / scenario.sinr_thresholds
    margin = float(np.min(ratio - 1.0))
    if margin < -SINR_TOL:
        problems.append(f"SINR margin {margin:.2e}")
    power = float(np.sum(np.abs(w) ** 2) + np.trace(sol.sensing_cov).real)
    if power > scenario.power_budget * (1.0 + POWER_TOL):
        problems.append(f"power {power:.9g} over budget {scenario.power_budget:.9g}")
    crb = evaluate_crb_objective(sol.full_cov)
    gap = abs(crb - result.reduced_objective) / crb
    if gap > GAP_TOL:
        problems.append(f"reduced-vs-full objective gap {gap:.2e}")

    bound = scenario.n_tx**2 / scenario.power_budget
    if crb <= bound * (1.0 + BOUND_TOL):
        return "isotropic-bound", problems
    residual = kkt_residual(sol, scenario, channel)
    if not residual <= KKT_TOL:
        problems.append(f"KKT residual {residual:.2e}")
    return "kkt", problems
