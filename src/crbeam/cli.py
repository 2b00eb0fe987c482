"""Command-line front end: solve, sweep, feasibility, verify.

Configuration is a single JSON document with dB/dBm fields; conversion to
linear units happens exactly once, here.
"""

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .feasibility import compute_p_low
from .pipeline import solve_scenario
from .rbal import SolverConfig
from .recovery import verify_solution
from .scenario import Scenario, dbm_to_linear, generate_channel, linear_to_dbm
from .verification import kkt_residuals

RESULT_COLUMNS = [
    "trial", "seed", "n_tx", "n_users", "feasible", "degenerate", "crb_objective",
    "iterations", "setup_seconds", "iter_seconds_total", "final_violation", "min_sinr_margin",
]


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    n_tx: int
    n_users: int
    p_t_dbm: float = 20.0
    gamma_db: object = 10.0        # scalar or per-user list
    sigma2_dbm: float = 0.0
    tau: float | None = None
    delta: float = 1e-4
    tol: float = 1e-9
    max_iters: int = 200000
    trials: int = 1
    base_seed: int = 0
    sweep: dict | None = None
    solver: SolverConfig | None = field(default=None, init=False, repr=False)


@dataclass
class ResultRow:
    trial: object
    seed: object
    n_tx: int
    n_users: int
    feasible: bool
    degenerate: bool
    crb_objective: object
    iterations: object
    setup_seconds: object
    iter_seconds_total: object
    final_violation: object
    min_sinr_margin: object


def _require_int(name, value, low):
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON (line {exc.lineno}): {exc.msg}") from exc

    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object, got {type(raw).__name__}")
    known = {f.name for f in fields(RunConfig) if f.init}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    for req in ("n_tx", "n_users"):
        if req not in raw:
            raise ConfigError(f"config field '{req}' is required")
    cfg = RunConfig(**raw)

    for name, low in (("n_tx", 1), ("n_users", 1), ("trials", 1), ("max_iters", 0), ("base_seed", 0)):
        _require_int(name, getattr(cfg, name), low)
    try:
        cfg.solver = SolverConfig(
            tau=cfg.tau, delta=cfg.delta, tol_violation=cfg.tol, max_iterations=cfg.max_iters
        )
    except (TypeError, ValueError) as exc:  # e.g. "tau": -1 or "tau": "1"
        raise ConfigError(f"invalid solver setting (tau, delta, tol): {exc}") from exc
    if cfg.n_tx <= cfg.n_users:
        raise ConfigError(f"n_tx ({cfg.n_tx}) must exceed n_users ({cfg.n_users})")
    if isinstance(cfg.gamma_db, list) and len(cfg.gamma_db) != cfg.n_users:
        raise ConfigError(f"gamma_db list must have n_users = {cfg.n_users} entries")
    if cfg.sweep is not None:
        if not isinstance(cfg.sweep, dict):
            raise ConfigError("sweep must be an object with 'parameter' and 'values'")
        param = cfg.sweep.get("parameter")
        values = cfg.sweep.get("values")
        if param not in ("K", "Nt"):
            raise ConfigError("sweep.parameter must be 'K' or 'Nt'")
        if not isinstance(values, list) or not values:
            raise ConfigError("sweep.values must be a non-empty list")
        for v in values:
            _require_int("sweep.values entry", v, 1)
            n_tx = v if param == "Nt" else cfg.n_tx
            n_users = v if param == "K" else cfg.n_users
            if n_tx <= n_users:
                raise ConfigError(f"sweep point {param}={v} violates n_tx > n_users")
        if any(a >= b for a, b in zip(values, values[1:])):
            raise ConfigError("sweep.values must be strictly increasing")
    return cfg


def make_scenario(cfg, n_tx=None, n_users=None):
    n_tx = n_tx or cfg.n_tx
    n_users = n_users or cfg.n_users
    gamma = np.asarray(cfg.gamma_db, dtype=float)
    thresholds = dbm_to_linear(np.broadcast_to(gamma, (n_users,)))
    return Scenario(
        n_tx=n_tx,
        n_users=n_users,
        power_budget=float(dbm_to_linear(cfg.p_t_dbm)),
        sinr_thresholds=thresholds,
        noise_power=float(dbm_to_linear(cfg.sigma2_dbm)),
    )


def _pair(z):
    return [float(np.real(z)), float(np.imag(z))]


def _complex_matrix_json(m):
    return [[_pair(z) for z in row] for row in np.atleast_2d(m)]


def solution_json(result, scenario, seed):
    sol = result.solution
    doc = {
        "schema_version": 1,
        "scenario": {
            "n_tx": scenario.n_tx,
            "n_users": scenario.n_users,
            "power_budget_mw": scenario.power_budget,
            "sinr_thresholds": scenario.sinr_thresholds.tolist(),
            "noise_power_mw": scenario.noise_power,
        },
        "seed": seed,
        "feasible": result.feasibility.feasible,
        "p_low_mw": result.feasibility.p_low,
        "degenerate": result.degenerate,
    }
    if sol is not None:
        doc.update(
            {
                "objective": sol.objective,
                "sinr": sol.sinr.tolist(),
                "beamformers": [[_pair(z) for z in w] for w in sol.w],
                "sensing_factor": _complex_matrix_json(sol.sensing_factor),
                "iterations": result.solve_report.iterations if result.solve_report else 0,
                "final_violation": result.solve_report.final_violation if result.solve_report else 0.0,
            }
        )
    return doc


def cmd_solve(args):
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.base_seed
    scenario = make_scenario(cfg)
    channel = generate_channel(scenario, seed)
    result = solve_scenario(scenario, channel, cfg.solver)

    if not result.feasibility.feasible:
        print(
            f"infeasible: P_T = {scenario.power_budget:.6g} mW below minimum "
            f"feasible power p_low = {result.feasibility.p_low:.6g} mW "
            f"({linear_to_dbm(result.feasibility.p_low):.3f} dBm)"
        )
        return 0 if args.allow_infeasible else 2

    sol = result.solution
    status = "closed-form (isotropic)" if result.degenerate else result.solve_report.status
    iters = 0 if result.degenerate else result.solve_report.iterations
    print(f"status: {status}   iterations: {iters}")
    print(f"objective tr(R^-1): {sol.objective:.9g}")
    print(f"min SINR margin: {np.min(sol.sinr / scenario.sinr_thresholds - 1.0):+.3e}")

    diag = verify_solution(sol, scenario, channel, reduced_objective=result.reduced_objective)
    for key, value in diag.items():
        print(f"  {key}: {value:+.3e}")
    if args.full_check:
        kkt = kkt_residuals(sol, scenario, channel)
        for key in ("stationarity", "theta_psd_margin", "complementarity", "primal_sinr", "primal_power"):
            print(f"  kkt_{key}: {kkt[key]:+.3e}")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(solution_json(result, scenario, seed), fh, indent=1)
        print(f"solution written to {args.out}")
    return 0


def run_trial(cfg, n_tx, n_users, trial):
    """One seeded trial; returns a ResultRow.  Failures are recorded in-row."""
    seed = cfg.base_seed ^ trial
    scenario = make_scenario(cfg, n_tx=n_tx, n_users=n_users)
    channel = generate_channel(scenario, seed)
    try:
        result = solve_scenario(scenario, channel, cfg.solver)
    except Exception as exc:  # record and continue the sweep
        print(f"trial {trial} ({n_tx}x{n_users}, seed {seed}) failed: {exc}", file=sys.stderr)
        return ResultRow(trial, seed, n_tx, n_users, False, False, "", "", "", "", "", "")
    if not result.feasibility.feasible:
        return ResultRow(
            trial, seed, n_tx, n_users, False, False, "", 0,
            result.setup_seconds, 0.0, "", "",
        )
    sol = result.solution
    margin = float(np.min(sol.sinr / scenario.sinr_thresholds - 1.0))
    report = result.solve_report
    return ResultRow(
        trial=trial,
        seed=seed,
        n_tx=n_tx,
        n_users=n_users,
        feasible=True,
        degenerate=result.degenerate,
        crb_objective=sol.objective,
        iterations=0 if result.degenerate else report.iterations,
        setup_seconds=result.setup_seconds,
        iter_seconds_total=result.iter_seconds,
        final_violation=0.0 if result.degenerate else report.final_violation,
        min_sinr_margin=margin,
    )


def cmd_sweep(args):
    cfg = load_config(args.config)
    if cfg.sweep is None:
        raise ConfigError("sweep command requires a 'sweep' section in the config")
    param = cfg.sweep["parameter"]
    rows = []
    aggregates = []
    for value in cfg.sweep["values"]:
        n_tx = value if param == "Nt" else cfg.n_tx
        n_users = value if param == "K" else cfg.n_users
        group = [run_trial(cfg, n_tx, n_users, t) for t in range(cfg.trials)]
        rows.extend(group)
        solved = [g for g in group if g.feasible and g.crb_objective != ""]
        if solved:
            runtimes = np.array([g.iter_seconds_total for g in solved], dtype=float)
            objectives = np.array([g.crb_objective for g in solved], dtype=float)
            aggregates.append(ResultRow(
                "mean", "", n_tx, n_users, True, "", float(objectives.mean()),
                float(np.mean([g.iterations for g in solved])),
                float(np.mean([g.setup_seconds for g in solved])),
                float(runtimes.mean()), "", "",
            ))
            aggregates.append(ResultRow(
                "median", "", n_tx, n_users, True, "", float(np.median(objectives)),
                float(np.median([g.iterations for g in solved])),
                float(np.median([g.setup_seconds for g in solved])),
                float(np.median(runtimes)), "", "",
            ))
        print(f"{param}={value}: {len(solved)}/{len(group)} trials solved", file=sys.stderr)

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for row in rows + aggregates:
            writer.writerow([getattr(row, col) for col in RESULT_COLUMNS])
    print(f"wrote {len(rows)} trial rows + {len(aggregates)} aggregate rows to {args.out}")
    return 0


def cmd_feasibility(args):
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.base_seed
    scenario = make_scenario(cfg)
    channel = generate_channel(scenario, seed)
    report = compute_p_low(scenario, channel)
    print(f"p_low: {report.p_low:.9g} mW ({linear_to_dbm(report.p_low):.4f} dBm)")
    print(f"lambdas: {np.array2string(report.lambdas, precision=6)}")
    print(f"budget: {scenario.power_budget:.9g} mW -> {'feasible' if report.feasible else 'infeasible'}"
          + (" (borderline)" if report.borderline else ""))
    print(f"fixed point: {report.iterations} iterations, residual {report.residual:.2e}")
    return 0 if report.feasible else 2


def _verify_checks(full):
    """(name, callable) pairs; each callable returns (measured, threshold)."""
    from . import verify_suite

    return verify_suite.build_checks(full=full)


def cmd_verify(args):
    checks = _verify_checks(full=args.full)
    failures = 0
    for name, fn in checks:
        t0 = time.perf_counter()
        measured, threshold = fn()
        ok = measured <= threshold
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {measured:.3e} (threshold {threshold:.1e}, {time.perf_counter() - t0:.1f}s)")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(prog="crbeam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one seeded instance")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--seed", type=int, default=None)
    p_solve.add_argument("--out", default=None)
    p_solve.add_argument("--full-check", action="store_true")
    p_solve.add_argument("--allow-infeasible", action="store_true")
    p_solve.set_defaults(fn=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="run the configured parameter sweep, write CSV")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_feas = sub.add_parser("feasibility", help="report the minimum feasible power")
    p_feas.add_argument("--config", required=True)
    p_feas.add_argument("--seed", type=int, default=None)
    p_feas.set_defaults(fn=cmd_feasibility)

    p_verify = sub.add_parser("verify", help="run the oracle suite")
    p_verify.add_argument("--full", action="store_true")
    p_verify.set_defaults(fn=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
