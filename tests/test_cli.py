import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

import crbeam.cli
import crbeam.recovery
import crbeam.scenario
import crbeam.verification
from crbeam.cli import ConfigError, RESULT_COLUMNS, load_config, main
from crbeam.feasibility import compute_p_low
from crbeam.pipeline import PipelineResult
from crbeam.rbal import SolveReport, SolverConfig
from crbeam.recovery import BeamformingSolution, NotPSD, extract_rank_one
from crbeam.reduction import build_reduced
from conftest import run_python

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_CONFIG = ROOT / "scripts" / "configs" / "default.json"
KKT_ROWS = ["kkt_stationarity", "kkt_theta_psd_margin", "kkt_complementarity", "kkt_mu_complementarity",
            "kkt_mu_min", "kkt_primal_sinr", "kkt_primal_power"]


def solve_raises(monkeypatch, fail_calls=None):
    """Make the CLI's solve_scenario raise NotPSD on the given call numbers
    (all calls when None) and run the real solve on the others."""
    real, calls = crbeam.cli.solve_scenario, []

    def fake(*args):
        calls.append(None)
        if fail_calls is None or len(calls) in fail_calls:
            raise NotPSD("eigenvalue -1.000e-03 below -1e-08 * trace")
        return real(*args)

    monkeypatch.setattr(crbeam.cli, "solve_scenario", fake)


def strict_json(path):
    """The JSON document at `path`, refusing the non-standard Infinity and NaN constants."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(Path(path).read_text(), parse_constant=reject)


def write_config(path, **overrides):
    # 10 dBm over 8x2 keeps the SINR constraints firmly active, where the
    # solver converges in a few thousand sweeps
    cfg = {
        "n_tx": 8,
        "n_users": 2,
        "p_t_dbm": 10.0,
        "gamma_db": 10.0,
        "sigma2_dbm": 0.0,
        "trials": 2,
        "base_seed": 7,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


class TestConfig:
    @pytest.mark.parametrize("command, overrides, message", [
        ("solve", {"bogus": 1}, "unknown config fields: ['bogus']"),
        ("solve", {"delta": 1e-4}, "unknown config fields: ['delta']"),
        ("solve", {"tau": -1}, "unknown config fields: ['tau']"),
        ("solve", {"tol": 1e-9}, "unknown config fields: ['tol']"),
        ("solve", {"tol": float("nan")}, "unknown config fields: ['tol']"),
        ("solve", {"tol": float("inf")}, "unknown config fields: ['tol']"),
        ("sweep", {"sweep": {"parameter": "K", "values": [1, 2], "extra": 1}}, "unknown sweep fields: ['extra']"),
    ], ids=["bogus", "delta", "tau", "tol-1e-9", "tol-NaN", "tol-Infinity", "sweep-extra"])
    def test_unknown_field_is_config_error(self, tmp_path, capsys, command, overrides, message):
        """The dual regularization delta, the stepsize tau and the 1e-9 stop
        tolerance are fixed, not config knobs, and a sweep holds only its
        parameter and values: a config naming any other field, at any value
        (json reads NaN and Infinity), is refused before anything runs."""
        p = write_config(tmp_path / "c.json", **overrides)
        with pytest.raises(ConfigError) as exc:
            load_config(p)
        assert str(exc.value) == message
        args = ["--seed", "1"] if command == "solve" else ["--out", str(tmp_path / "rows.csv")]
        assert main([command, "--config", str(p), *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"config error: {message}"]

    def test_solver_defaults_come_from_solver_config(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"n_tx": 8, "n_users": 2}))
        assert load_config(p).solver == SolverConfig()

    def test_missing_required(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"n_users": 2}))
        with pytest.raises(ConfigError, match="n_tx"):
            load_config(p)

    def test_bad_json_reports_line(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{\n  broken\n}")
        with pytest.raises(ConfigError, match="line"):
            load_config(p)

    def test_gamma_list_length(self, tmp_path):
        p = write_config(tmp_path / "c.json", gamma_db=[10.0, 10.0, 10.0])
        with pytest.raises(ConfigError, match="gamma_db"):
            load_config(p)

    def test_sweep_validation(self, tmp_path):
        p = write_config(tmp_path / "c.json", sweep={"parameter": "Nt", "values": [16, 8]})
        with pytest.raises(ConfigError, match="sweep"):
            load_config(p)
        p = write_config(tmp_path / "c.json", sweep={"parameter": "K", "values": [4, 16]})
        with pytest.raises(ConfigError, match="n_tx > n_users"):
            load_config(p)

    @pytest.mark.parametrize("name, value", [
        pytest.param("n_tx", "64", id="n_tx-64"), pytest.param("n_users", 0, id="n_users-0"),
        pytest.param("n_tx", 8.5, id="n_tx-8.5"), pytest.param("sigma2_dbm", "5", id="sigma2_dbm-5"),
        pytest.param("trials", True, id="trials-True"), pytest.param("p_t_dbm", None, id="p_t_dbm-None"),
        pytest.param("gamma_db", "abc", id="gamma_db-abc"), pytest.param("gamma_db", [10, "x"], id="gamma_db-list"),
        pytest.param("gamma_db", {"a": 1}, id="gamma_db-dict"), pytest.param("p_t_dbm", 1e400, id="p_t_dbm-inf"),
        pytest.param("max_iters", -1, id="max_iters--1"), pytest.param("max_iters", 2.5, id="max_iters-2.5"),
        pytest.param("max_iters", True, id="max_iters-True"),
    ])
    def test_malformed_field_is_config_error(self, tmp_path, capsys, name, value):
        p = write_config(tmp_path / "c.json", **{name: value})
        with pytest.raises(ConfigError, match=name):
            load_config(p)
        assert main(["solve", "--config", str(p)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("document", [
        {"n_tx": 8, "n_users": 2, "sweep": {"parameter": "K", "values": "ab"}},
        5,
        [1, 2],
        {"n_tx": 8, "n_users": 2, "sweep": [1]},
        {"n_tx": 8, "n_users": 2, "sweep": {"parameter": "K", "values": [1.5, 2]}},
        {"n_tx": 8, "n_users": 2, "sweep": {"parameter": "K", "values": [True]}},
        {"n_tx": 12, "n_users": 2, "gamma_db": [10, 12], "trials": 1,
         "sweep": {"parameter": "K", "values": [1, 3]}},
    ], ids=["values-string", "top-level-number", "top-level-list", "sweep-list",
            "values-float", "values-bool", "k-sweep-gamma-list"])
    def test_malformed_document_is_config_error(self, tmp_path, capsys, document):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(document))
        assert main(["feasibility", "--config", str(p)]) == 1
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, seed", [("solve", "-1"), ("feasibility", "-3")])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, monkeypatch, command, seed):
        """--seed follows base_seed's rule and is refused before any channel is drawn."""
        def no_work(*args):
            raise AssertionError("a channel was drawn")

        monkeypatch.setattr(crbeam.cli, "generate_channel", no_work)
        cfg = write_config(tmp_path / "c.json")
        assert main([command, "--config", str(cfg), "--seed", seed]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"config error: --seed must be an integer >= 0, got {seed}"]
        assert captured.out == ""


class TestSolveCommand:
    def test_solve_writes_solution_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "sol.json"
        code = main(["solve", "--config", str(cfg), "--seed", "3", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 3
        assert doc["feasible"] is True
        assert doc["scenario"]["power_budget_mw"] == pytest.approx(10.0)
        # complex entries are [re, im] pairs
        w0 = doc["beamformers"][0]
        assert len(w0) == 8 and len(w0[0]) == 2
        assert all(isinstance(v, float) for v in w0[0])
        assert len(doc["sinr"]) == 2
        assert doc["final_violation"] < 1e-9

    def test_solution_json_rebuilds_covariance(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "sol.json"
        assert main(["solve", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())

        def complex_matrix(rows):
            pairs = np.array(rows, dtype=float)
            return pairs[..., 0] + 1j * pairs[..., 1]

        w = complex_matrix(doc["beamformers"]).T  # one column per user
        u = complex_matrix(doc["range_basis"])
        m = complex_matrix(doc["sensing_block"])
        assert w.shape == (8, 2) and u.shape == (8, 2) and m.shape == (2, 2)
        full = w @ w.conj().T + u @ m @ u.conj().T + doc["null_level"] * np.eye(8)
        budget = doc["scenario"]["power_budget_mw"]
        assert np.trace(full).real == pytest.approx(budget, rel=1e-9)
        assert np.trace(np.linalg.inv(full)).real == pytest.approx(doc["objective"], rel=1e-6)

    def test_deterministic_given_seed(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["solve", "--config", str(cfg), "--seed", "5", "--out", str(out1)])
        main(["solve", "--config", str(cfg), "--seed", "5", "--out", str(out2)])
        assert out1.read_text() == out2.read_text()

    def test_infeasible_exit_and_message(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", p_t_dbm=-30.0)
        code = main(["solve", "--config", str(cfg), "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 2
        assert "p_low" in out

    def test_infeasible_writes_document(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", p_t_dbm=-30.0)
        out = tmp_path / "sol.json"
        code = main(["solve", "--config", str(cfg), "--seed", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().out.splitlines()[-1] == f"solution written to {out}"
        doc = json.loads(out.read_text())
        assert doc["feasible"] is False
        assert doc["p_low_mw"] > doc["scenario"]["power_budget_mw"]
        assert not {
            "objective", "sinr", "beamformers", "range_basis", "sensing_block", "null_level", "iterations",
        } & set(doc)

    def test_isotropic_document_has_no_p_low(self, tmp_path, capsys):
        """At the paper defaults the screen's witness proves the budget
        feasible and no p_low probe runs, so `p_low_mw` is null."""
        doc_path = tmp_path / "sol.json"
        assert main(["solve", "--config", str(DEFAULT_CONFIG), "--seed", "1", "--out", str(doc_path)]) == 0
        doc = strict_json(doc_path)
        assert doc["schema_version"] == 3
        assert doc["feasible"] is True and doc["degenerate"] is True
        assert doc["p_low_mw"] is None

    @pytest.mark.filterwarnings("error")
    def test_tiny_threshold_solves_in_closed_form(self, tmp_path, capsys):
        """gamma = 1e-308 makes the p_low probe diverge (`feasibility` exits 4),
        but the budget is isotropic: `solve` returns the witness, exit 0."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n_tx": 8, "n_users": 2, "gamma_db": -3080}))
        assert main(["solve", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[0] == "status: closed-form (isotropic)   iterations: 0"

    def test_degenerate_single_user(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", n_tx=4, n_users=1, p_t_dbm=20.0)
        out = tmp_path / "sol.json"
        code = main(["solve", "--config", str(cfg), "--seed", "2", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["degenerate"] is True
        assert doc["objective"] == pytest.approx(0.16, rel=1e-12)

    def test_iteration_cap_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", max_iters=5)
        out = tmp_path / "sol.json"
        code = main(["solve", "--config", str(cfg), "--seed", "3", "--out", str(out)])
        assert code == 3
        assert "iteration_cap" in capsys.readouterr().out
        assert json.loads(out.read_text())["iterations"] == 5

    def test_full_check_prints_kkt(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        code = main(["solve", "--config", str(cfg), "--seed", "3", "--full-check"])
        assert code == 0
        out = capsys.readouterr().out
        for key in KKT_ROWS + ["objective_gap"]:
            assert f"  {key}: " in out

    def test_full_check_decomposes_r_once(self, tmp_path, capsys, monkeypatch):
        """--full-check reads the dense tr(R^-1) off kkt_residuals' eigendecomposition:
        R is built once, for that one decomposition, and the gap is at rounding level."""
        builds = []
        full_cov = BeamformingSolution.full_cov
        monkeypatch.setattr(BeamformingSolution, "full_cov", property(lambda sol: builds.append(1) or full_cov.fget(sol)))
        cfg = write_config(tmp_path / "c.json")
        assert main(["solve", "--config", str(cfg), "--seed", "3", "--full-check"]) == 0
        assert len(builds) == 1
        gap = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  objective_gap: ")]
        assert len(gap) == 1
        assert abs(float(gap[0].split()[1])) <= 1e-9

    def test_default_report_runs_no_check(self, tmp_path, capsys, monkeypatch):
        """Without --full-check, solve prints what the answer carries and
        does no dense work after the solve."""
        def dense_check(*args):
            raise AssertionError("dense check ran without --full-check")

        for module in (crbeam.cli, crbeam.verification):
            monkeypatch.setattr(module, "kkt_residuals", dense_check)
        monkeypatch.setattr(crbeam.scenario, "evaluate_crb_objective", dense_check)
        cfg = write_config(tmp_path / "c.json")
        assert main(["solve", "--config", str(cfg), "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("status: converged")
        removed = ["sinr_margin", "power_residual", "sensing_psd_margin", "range_leak",
                   "projector_gap", "cov_residual", "objective_gap", "kkt_"]
        assert not [key for key in removed if key in out]

    def test_spent_budget_answer_survives(self, tmp_path, capsys, monkeypatch):
        """A capped run whose blocks spend all of P_T keeps its answer: theta
        is 0, the objective inf, and --full-check reports the singular
        covariance instead of failing."""
        def spent_budget(scenario, channel, solver):
            k = scenario.n_users
            x = np.stack([np.eye(k, dtype=complex) * scenario.power_budget / k**2] * k)
            solution = extract_rank_one(x, build_reduced(scenario, channel))
            report = SolveReport("iteration_cap", 5, 0.1, 1.0)
            return PipelineResult(compute_p_low(scenario, channel), False, solution, report, 1.0, 0.0, 0.0)

        monkeypatch.setattr(crbeam.cli, "solve_scenario", spent_budget)
        cfg = write_config(tmp_path / "c.json")
        doc_path = tmp_path / "sol.json"
        code = main(["solve", "--config", str(cfg), "--seed", "1", "--full-check", "--out", str(doc_path)])
        out = capsys.readouterr().out
        assert code == 3
        assert out.splitlines()[0].startswith("status: iteration_cap")
        assert "objective tr(R^-1): inf" in out
        assert "  objective_gap: n/a, " in out
        doc = strict_json(doc_path)
        assert doc["schema_version"] == 3
        assert doc["objective"] is None

    def test_spent_budget_capped_run(self, tmp_path, capsys):
        """A real capped run whose blocks spend all of P_T: its null-space level
        is ~1e-13 P_T / (Nt - K), so R is singular by the one rule (lambda_min
        <= 1e-12 lambda_max). Exit 3, not 4, and the objective is inf, null in
        strict JSON."""
        cfg = tmp_path / "capped.json"
        cfg.write_text(json.dumps(
            {"n_tx": 12, "n_users": 3, "p_t_dbm": -17.9642, "sigma2_dbm": -30, "max_iters": 60000}
        ))
        doc_path = tmp_path / "sol.json"
        assert main(["solve", "--config", str(cfg), "--seed", "1", "--out", str(doc_path)]) == 3
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("status: iteration_cap ")
        assert "objective tr(R^-1): inf" in out
        assert strict_json(doc_path)["objective"] is None

    def test_spent_budget_start_exits_cap(self, tmp_path, capsys):
        """8x2 at 7 dBm is under 2 p_low, so the start spends all of P_T: with no
        sweep the answer's objective is inf, reported with exit 3, not a crash."""
        cfg = write_config(tmp_path / "c.json", p_t_dbm=7.0, max_iters=0)
        doc_path = tmp_path / "sol.json"
        code = main(["solve", "--config", str(cfg), "--seed", "1", "--out", str(doc_path)])
        captured = capsys.readouterr()
        assert code == 3, captured.err
        assert "objective tr(R^-1): inf" in captured.out
        assert strict_json(doc_path)["objective"] is None

    def test_wide_document_needs_no_dense_work(self, tmp_path, capsys):
        """Since schema 2 the document holds U, the K x K block M and theta, not
        a dense sensing factor: at 1024x8 it stays under 2 MB, and its power
        is ||W||_F^2 + tr M + Nt theta = P_T with no Nt x Nt work."""
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps({"n_tx": 1024, "n_users": 8}))
        doc_path = tmp_path / "sol.json"
        assert main(["solve", "--config", str(cfg), "--seed", "1", "--out", str(doc_path)]) == 0
        assert doc_path.stat().st_size < 2e6
        doc = strict_json(doc_path)
        assert doc["schema_version"] == 3
        w, m = np.array(doc["beamformers"]), np.array(doc["sensing_block"])
        power = np.sum(w**2) + np.trace(m[..., 0]) + doc["scenario"]["n_tx"] * doc["null_level"]
        budget = doc["scenario"]["power_budget_mw"]
        assert abs(power - budget) <= 1e-9 * budget

    def test_unwritable_out(self, tmp_path, capsys, monkeypatch):
        """An unwritable --out is found before the solve, which never runs."""
        def no_solve(*args):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(crbeam.cli, "solve_scenario", no_solve)
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "missing" / "sol.json"
        assert main(["solve", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"cannot write {out}: No such file or directory"]
        assert captured.out == ""

    def test_solve_failure_keeps_existing_out(self, tmp_path, capsys, monkeypatch):
        """The --out probe before the solve truncates no existing document."""
        solve_raises(monkeypatch)
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "sol.json"
        out.write_text("earlier document")
        assert main(["solve", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 4
        assert capsys.readouterr().out == ""
        assert out.read_text() == "earlier document"

    def test_solve_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        solve_raises(monkeypatch)
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "sol.json"
        assert main(["solve", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["solve failed: NotPSD: eigenvalue -1.000e-03 below -1e-08 * trace"]
        assert captured.out == ""
        assert not out.exists()


    def test_solve_failure_through_dangling_link(self, tmp_path, capsys, monkeypatch):
        """A probe through a dangling link makes the link's target; a solve
        that raises leaves no target behind, and the link as it was."""
        solve_raises(monkeypatch)
        cfg = write_config(tmp_path / "c.json")
        out, target = tmp_path / "sol.json", tmp_path / "target.json"
        out.symlink_to(target)
        assert main(["solve", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 4
        assert capsys.readouterr().out == ""
        assert out.is_symlink() and not target.exists()


class TestSweepCommand:
    def sweep_config(self, tmp_path):
        return write_config(
            tmp_path / "sweep.json",
            n_tx=12,
            n_users=2,
            trials=2,
            sweep={"parameter": "Nt", "values": [8, 12]},
        )

    def test_readme_lists_the_columns(self):
        readme = (ROOT / "README.md").read_text().split("Sweep CSV columns are exactly")[1]
        fenced = readme.split("```")[1]
        assert "".join(fenced.split()).split(",") == RESULT_COLUMNS

    def test_csv_schema_and_aggregates(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == RESULT_COLUMNS
        trial_rows = [r for r in rows[1:] if r[0] not in ("mean", "median")]
        agg_rows = [r for r in rows[1:] if r[0] in ("mean", "median")]
        assert len(trial_rows) == 4  # 2 sweep points x 2 trials
        assert len(agg_rows) == 4
        for r in trial_rows:
            assert r[4] == "True"
            assert float(r[6]) > 0  # crb objective present for feasible rows

    def test_determinism_modulo_timing(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "--config", str(cfg), "--out", str(out1)])
        main(["sweep", "--config", str(cfg), "--out", str(out2)])
        timing = {RESULT_COLUMNS.index("setup_seconds"), RESULT_COLUMNS.index("iter_seconds_total")}
        with open(out1, newline="") as f1, open(out2, newline="") as f2:
            for r1, r2 in zip(csv.reader(f1), csv.reader(f2), strict=True):
                stripped1 = [v for i, v in enumerate(r1) if i not in timing]
                stripped2 = [v for i, v in enumerate(r2) if i not in timing]
                assert stripped1 == stripped2

    def test_iteration_cap_is_not_solved(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "sweep.json", max_iters=5, sweep={"parameter": "Nt", "values": [8]}
        )
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 3
        assert "Nt=8: 0/2 trials solved, 2 stopped at iteration_cap" in capsys.readouterr().err
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == RESULT_COLUMNS
        assert [r[0] for r in rows[1:]] == ["0", "1"]  # no mean/median rows

    def test_every_trial_failed(self, tmp_path, capsys, monkeypatch):
        solve_raises(monkeypatch)
        cfg = self.sweep_config(tmp_path)
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert sum(line.startswith("solve failed: NotPSD: ") for line in err) == 4
        assert "Nt=8: 0/2 trials solved, 0 stopped at iteration_cap, 2 failed, 0 infeasible" in err
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # no mean/median rows
        assert all(r["feasible"] == "" and r["crb_objective"] == "" for r in rows)

    def test_failure_takes_precedence_over_cap(self, tmp_path, capsys, monkeypatch):
        solve_raises(monkeypatch, fail_calls={1})
        cfg = write_config(
            tmp_path / "sweep.json", max_iters=5, sweep={"parameter": "Nt", "values": [8]}
        )
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "rows.csv")]) == 4
        assert "Nt=8: 0/2 trials solved, 1 stopped at iteration_cap, 1 failed" in capsys.readouterr().err

    def test_unwritable_out_found_before_first_trial(self, tmp_path, capsys, monkeypatch):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(crbeam.cli, "solve_scenario", no_trial)
        cfg = self.sweep_config(tmp_path)
        out = tmp_path / "missing" / "rows.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"cannot write {out}: No such file or directory"]
        assert captured.out == ""

    def test_interrupted_sweep_keeps_existing_out(self, tmp_path, capsys, monkeypatch):
        """The CSV is written after the last trial, so a sweep stopped
        mid-trial leaves an earlier CSV as it was."""
        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(crbeam.cli, "solve_scenario", interrupt)
        cfg = self.sweep_config(tmp_path)
        out = tmp_path / "rows.csv"
        out.write_text("earlier rows")
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert out.read_text() == "earlier rows"

    def test_every_trial_infeasible(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "sweep.json", p_t_dbm=-30.0, sweep={"parameter": "Nt", "values": [8]})
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "Nt=8: 0/2 trials solved, 0 stopped at iteration_cap, 0 failed, 2 infeasible"
        ]
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["feasible"] for r in rows] == ["False", "False"]  # no mean/median rows

    def test_sweep_requires_sweep_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1


class Untouchable:
    """Stands in for the dense sensing factor: any read of it raises."""

    def __getattribute__(self, name):
        raise AssertionError(f"the dense sensing factor was read: .{name}")

    def __array__(self, *args, **kwargs):
        raise AssertionError("the dense sensing factor was converted to an array")


def test_no_output_reads_the_dense_factor(tmp_path, capsys, monkeypatch):
    """solve --full-check on both paths and a sweep print and write the same
    with the dense factor stubbed: no output depends on it. The iterative
    path at ~3x p_low certifies an extract_rank_one answer."""
    iterative = tmp_path / "iterative.json"
    iterative.write_text(json.dumps({"n_tx": 12, "n_users": 3, "p_t_dbm": 12.0358}))
    sweep = write_config(tmp_path / "sweep.json", n_tx=64, n_users=4, p_t_dbm=20.0, trials=1,
                         sweep={"parameter": "K", "values": [2, 4]})
    sol, csv_out = tmp_path / "sol.json", tmp_path / "rows.csv"
    timing = {RESULT_COLUMNS.index("setup_seconds"), RESULT_COLUMNS.index("iter_seconds_total")}

    def outputs():
        runs = []
        for cfg in (DEFAULT_CONFIG, iterative):
            assert main(["solve", "--config", str(cfg), "--seed", "1", "--out", str(sol), "--full-check"]) == 0
            runs.append((capsys.readouterr().out, sol.read_text()))
        assert main(["sweep", "--config", str(sweep), "--out", str(csv_out)]) == 0
        with open(csv_out, newline="") as fh:
            rows = [[v for i, v in enumerate(r) if i not in timing] for r in csv.reader(fh)]
        return runs, capsys.readouterr().out, rows

    plain = outputs()
    (_, (iterative_out, _)), _, _ = plain
    assert iterative_out.startswith("status: converged   iterations: 3448\n")
    assert float(re.search(r"kkt_stationarity: (\S+)", iterative_out).group(1)) < 1e-6
    stubbed = []
    monkeypatch.setattr(crbeam.recovery, "sensing_factor", lambda cov: stubbed.append(1) or Untouchable())
    assert outputs() == plain
    assert len(stubbed) == 4  # two solves and two sweep points built an answer


class TestFeasibilityCommand:
    def test_feasible(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        assert main(["feasibility", "--config", str(cfg), "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "p_low" in out and "feasible" in out

    def test_infeasible(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", p_t_dbm=-30.0)
        assert main(["feasibility", "--config", str(cfg), "--seed", "1"]) == 2

    @pytest.mark.filterwarnings("error")  # the overflow on the way prints no warning either
    def test_probe_that_raises(self, tmp_path, capsys):
        """At gamma = 1e-308 the fixed point diverges: one `feasibility failed:` line
        and exit 4, as solve reports it, not a traceback and the config-error code."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n_tx": 8, "n_users": 2, "gamma_db": -3080}))
        assert main(["feasibility", "--config", str(cfg)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("feasibility failed: FixedPointDiverged: no convergence in ")


@pytest.mark.parametrize("command, config, code, quiet", [
    ("solve", None, 0, "stderr"),
    ("feasibility", None, 0, "stderr"),
    ("solve", {"n_tx": 8, "n_users": 2, "tau": 0.1}, 1, "stdout"),
    ("solve", {"n_tx": 8, "n_users": 2, "p_t_dbm": -30}, 2, "stderr"),
    ("solve", {"n_tx": 8, "n_users": 2, "p_t_dbm": 7, "max_iters": 0}, 3, "stderr"),
    ("feasibility", {"n_tx": 8, "n_users": 2, "gamma_db": -3080}, 4, "stdout"),
], ids=["solve-default", "feasibility-default", "config-error", "infeasible", "iteration-cap", "probe-raises"])
def test_module_entry_point(tmp_path, command, config, code, quiet):
    """`python -m crbeam.cli` exits with main's code and writes to one stream
    only; the tests above check what it writes. None is the shipped default config."""
    if config is None:
        path = DEFAULT_CONFIG
    else:
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
    args = ["--seed", "1", "--out", str(tmp_path / "sol.json")] if command == "solve" else []
    run = run_python("-m", "crbeam.cli", command, "--config", str(path), *args)
    assert run.returncode == code, run.stderr
    assert getattr(run, quiet) == ""


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{solve,sweep,feasibility}" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    pytest.param(["verify"], "invalid choice: 'verify'", id="verify"),
    pytest.param(["solve", "--config", str(DEFAULT_CONFIG), "--allow-infeasible"],
                 "unrecognized arguments: --allow-infeasible", id="allow-infeasible"),
])
def test_removed_interface_is_usage_error(capsys, argv, message):
    """The oracle checks run in the test suite, so the CLI has no `verify`;
    an infeasible budget always exits 2, so `solve` has no flag that makes it 0."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2  # argparse's usage error
    assert message in capsys.readouterr().err
