"""Command-line front end: solve, sweep, feasibility.

`solve --full-check` adds the dense KKT certificate of `verification`.
Configuration is a single JSON document with dB/dBm fields; conversion to
linear units happens exactly once, here.
"""

import argparse
import csv
import json
import os
import sys
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .feasibility import compute_p_low
from .pipeline import solve_scenario
from .rbal import SolverConfig
from .scenario import Scenario, dbm_to_linear, generate_channel, linear_to_dbm
from .verification import kkt_residuals


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    n_tx: int
    n_users: int
    p_t_dbm: float = 20.0
    gamma_db: object = 10.0        # scalar or per-user list
    sigma2_dbm: float = 0.0
    max_iters: int = SolverConfig.max_iterations
    trials: int = 1
    base_seed: int = 0
    sweep: dict | None = None
    solver: SolverConfig | None = field(default=None, init=False, repr=False)
    scenario: Scenario | None = field(default=None, init=False, repr=False)
    sweep_scenarios: dict = field(default_factory=dict, init=False, repr=False)  # value -> Scenario


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


RESULT_COLUMNS = [f.name for f in fields(ResultRow)]
ISOTROPIC = "closed-form (isotropic)"  # the status of an answer the isotropic screen settled


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

    for name, low in (("trials", 1), ("base_seed", 0)):  # Scenario checks n_tx and n_users
        _require_int(name, getattr(cfg, name), low)
    gammas = cfg.gamma_db if isinstance(cfg.gamma_db, list) else [cfg.gamma_db]
    db_fields = [("p_t_dbm", cfg.p_t_dbm), ("sigma2_dbm", cfg.sigma2_dbm)] + [("gamma_db", g) for g in gammas]
    for name, value in db_fields:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        cfg.solver = SolverConfig(max_iterations=cfg.max_iters)
    except ValueError as exc:  # e.g. "max_iters": 2.5
        raise ConfigError(f"invalid solver setting (max_iters): {exc}") from exc

    cfg.scenario = _scenario(cfg, cfg.n_tx, cfg.n_users)
    if cfg.sweep is not None:
        if not isinstance(cfg.sweep, dict):
            raise ConfigError("sweep must be an object with 'parameter' and 'values'")
        if unknown := set(cfg.sweep) - {"parameter", "values"}:
            raise ConfigError(f"unknown sweep fields: {sorted(unknown)}")
        param = cfg.sweep.get("parameter")
        values = cfg.sweep.get("values")
        if param not in ("K", "Nt"):
            raise ConfigError("sweep.parameter must be 'K' or 'Nt'")
        if not isinstance(values, list) or not values:
            raise ConfigError("sweep.values must be a non-empty list")
        for v in values:
            n_tx, n_users = (v, cfg.n_users) if param == "Nt" else (cfg.n_tx, v)
            cfg.sweep_scenarios[v] = _scenario(cfg, n_tx, n_users, f" at sweep point {param}={v}")
        if any(a >= b for a, b in zip(values, values[1:])):
            raise ConfigError("sweep.values must be strictly increasing")
    return cfg


def _scenario(cfg, n_tx, n_users, where=""):
    """The Scenario of one run shape; its own checks become config errors."""
    try:
        with np.errstate(over="ignore"):  # a dB value past float range becomes inf, which Scenario rejects
            return Scenario(
                n_tx=n_tx, n_users=n_users, power_budget=float(dbm_to_linear(cfg.p_t_dbm)),
                sinr_thresholds=dbm_to_linear(cfg.gamma_db), noise_power=float(dbm_to_linear(cfg.sigma2_dbm)),
            )
    except (TypeError, ValueError) as exc:  # e.g. n_tx <= n_users or "p_t_dbm": 1e400
        raise ConfigError(
            f"invalid scenario{where} (n_tx, n_users, p_t_dbm, gamma_db, sigma2_dbm): {exc}"
        ) from exc


def _complex_matrix_json(m):
    return np.stack([m.real, m.imag], axis=-1).tolist()  # rows of [re, im] pairs


def _out_file(path, mode="w", **kwargs):
    """`path` opened for writing, or None after one `cannot write` line on stderr."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        print(f"cannot write {path}: {exc.strerror}", file=sys.stderr)
        return None


def _probe_out(path):
    """Whether `path` can be written. Appending truncates nothing, and a file the
    probe made (a dangling link's target, too) is removed, so a failed run leaves none."""
    made = not os.path.exists(path)  # follows links
    if (fh := _out_file(path, "a")) is not None:
        fh.close()
        if made:
            os.remove(os.path.realpath(path))
    return fh is not None


def result_row(result, scenario, trial="", seed=""):
    """(ResultRow, status) of one PipelineResult: the one place that reads it.

    status is "infeasible", ISOTROPIC or the solver's "converged" /
    "iteration_cap"; an isotropic answer ran no sweep, so its iterations and
    final violation read 0."""
    n_tx, n_users = scenario.n_tx, scenario.n_users
    if not result.feasibility.feasible:
        row = ResultRow(trial, seed, n_tx, n_users, False, False, "", 0, result.setup_seconds, 0.0, "", "")
        return row, "infeasible"
    sol, report = result.solution, result.solve_report
    row = ResultRow(
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
        min_sinr_margin=float(np.min(sol.sinr / scenario.sinr_thresholds - 1.0)),
    )
    return row, ISOTROPIC if result.degenerate else report.status


def run_or_report(command, fn, *args, where=""):
    """fn(*args), or None after one `<command> failed:` line on stderr."""
    try:
        return fn(*args)
    except Exception as exc:  # a run that raises is reported, not a config error
        print(f"{command} failed: {type(exc).__name__}: {exc}{where}", file=sys.stderr)
        return None


def solution_json(result, row, scenario):
    doc = {
        "schema_version": 3,
        "scenario": {
            "n_tx": scenario.n_tx,
            "n_users": scenario.n_users,
            "power_budget_mw": scenario.power_budget,
            "sinr_thresholds": scenario.sinr_thresholds.tolist(),
            "noise_power_mw": scenario.noise_power,
        },
        "seed": row.seed,
        "feasible": row.feasible,
        "p_low_mw": result.feasibility.p_low,
        "degenerate": row.degenerate,
    }
    if row.feasible:
        sol = result.solution
        doc.update(
            # strict JSON has no Infinity: a spent budget's objective is null
            objective=row.crb_objective if np.isfinite(row.crb_objective) else None,
            sinr=sol.sinr.tolist(),
            beamformers=_complex_matrix_json(sol.w),  # row k is user k's w_k
            # R = W W^H + U M U^H + theta I: the Nt x K basis U, the K x K block M, theta
            range_basis=_complex_matrix_json(sol.u_tilde),
            sensing_block=_complex_matrix_json(sol.m),
            null_level=sol.theta,
            iterations=row.iterations,
            final_violation=row.final_violation,
        )
    return doc


def cmd_solve(args):
    cfg = load_config(args.config)
    if args.out and not _probe_out(args.out):
        return 1
    seed = args.seed if args.seed is not None else cfg.base_seed
    scenario = cfg.scenario
    channel = generate_channel(scenario, seed)
    result = run_or_report("solve", solve_scenario, scenario, channel, cfg.solver)
    if result is None:
        return 4
    row, status = result_row(result, scenario, seed=seed)

    if status == "infeasible":
        print(
            f"infeasible: P_T = {scenario.power_budget:.6g} mW below minimum "
            f"feasible power p_low = {result.feasibility.p_low:.6g} mW "
            f"({linear_to_dbm(result.feasibility.p_low):.3f} dBm)"
        )
    else:
        print(f"status: {status}   iterations: {row.iterations}")
        print(f"objective tr(R^-1): {row.crb_objective:.9g}")
        print(f"min SINR margin: {row.min_sinr_margin:+.3e}")
    if args.full_check and row.feasible:
        kkt = kkt_residuals(result.solution, scenario, channel)
        for key in ("stationarity", "theta_psd_margin", "complementarity", "mu_complementarity", "mu_min",
                    "primal_sinr", "primal_power"):
            print(f"  kkt_{key}: {kkt[key]:+.3e}")
        full = kkt["objective"]  # the dense tr(R^-1), from kkt's one decomposition of R
        gap = f"{abs(full - result.reduced_objective) / full:+.3e}" if full < np.inf else "n/a, R is singular"
        print(f"  objective_gap: {gap}")

    if args.out:
        if (fh := _out_file(args.out)) is None:
            return 1
        with fh:
            json.dump(solution_json(result, row, scenario), fh, indent=1)
        print(f"solution written to {args.out}")
    return 2 if status == "infeasible" else 3 if status == "iteration_cap" else 0


def run_trial(cfg, scenario, trial):
    """One seeded trial; returns (ResultRow, status) with result_row's statuses
    plus "failed" for a solve that raised, whose row is empty past n_users."""
    seed = cfg.base_seed ^ trial
    n_tx, n_users = scenario.n_tx, scenario.n_users
    channel = generate_channel(scenario, seed)
    result = run_or_report("solve", solve_scenario, scenario, channel, cfg.solver,
                           where=f" (trial {trial}, {n_tx}x{n_users}, seed {seed})")
    if result is None:
        return ResultRow(trial, seed, n_tx, n_users, *[""] * 8), "failed"
    return result_row(result, scenario, trial, seed)


def cmd_sweep(args):
    cfg = load_config(args.config)
    if cfg.sweep is None:
        raise ConfigError("sweep command requires a 'sweep' section in the config")
    param = cfg.sweep["parameter"]
    if not _probe_out(args.out):
        return 1
    rows, statuses, aggregates = [], [], []
    for value, scenario in cfg.sweep_scenarios.items():
        results = [run_trial(cfg, scenario, t) for t in range(cfg.trials)]
        rows.extend(row for row, _ in results)
        point = [status for _, status in results]
        statuses.extend(point)
        solved = [row for row, status in results if status in ("converged", ISOTROPIC)]
        if solved:
            for name, stat in (("mean", np.mean), ("median", np.median)):
                values = [float(stat([getattr(g, col) for g in solved]))
                          for col in ("crb_objective", "iterations", "setup_seconds", "iter_seconds_total")]
                aggregates.append(ResultRow(name, "", scenario.n_tx, scenario.n_users, True, "", *values, "", ""))
        print(f"{param}={value}: {len(solved)}/{len(results)} trials solved, "
              f"{point.count('iteration_cap')} stopped at iteration_cap, {point.count('failed')} failed, "
              f"{point.count('infeasible')} infeasible",
              file=sys.stderr)
    if (fh := _out_file(args.out, newline="", encoding="utf-8")) is None:
        return 1
    with fh:
        csv.writer(fh).writerows([RESULT_COLUMNS] + [astuple(row) for row in rows + aggregates])
    print(f"wrote {len(rows)} trial rows + {len(aggregates)} aggregate rows to {args.out}")
    return 4 if "failed" in statuses else 3 if "iteration_cap" in statuses else 0


def cmd_feasibility(args):
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.base_seed
    scenario = cfg.scenario
    channel = generate_channel(scenario, seed)
    report = run_or_report("feasibility", compute_p_low, scenario, channel)
    if report is None:
        return 4
    print(f"p_low: {report.p_low:.9g} mW ({linear_to_dbm(report.p_low):.4f} dBm)")
    print(f"lambdas: {np.array2string(report.lambdas, precision=6)}")
    print(f"budget: {scenario.power_budget:.9g} mW -> {'feasible' if report.feasible else 'infeasible'}"
          + (" (borderline)" if report.borderline else ""))
    print(f"fixed point: {report.iterations} iterations, residual {report.residual:.2e}")
    return 0 if report.feasible else 2


def main(argv=None):
    parser = argparse.ArgumentParser(prog="crbeam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one seeded instance")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--seed", type=int, default=None)
    p_solve.add_argument("--out", default=None)
    p_solve.add_argument("--full-check", action="store_true")
    p_solve.set_defaults(fn=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="run the configured parameter sweep, write CSV")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_feas = sub.add_parser("feasibility", help="report the minimum feasible power")
    p_feas.add_argument("--config", required=True)
    p_feas.add_argument("--seed", type=int, default=None)
    p_feas.set_defaults(fn=cmd_feasibility)

    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None:  # the rule of the config's base_seed
            _require_int("--seed", args.seed, 0)
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
