import csv
import json

import numpy as np
import pytest

import crbeam.cli
import crbeam.scenario
import crbeam.verification
from crbeam.cli import ConfigError, RESULT_COLUMNS, load_config, main
from crbeam.recovery import NotPSD

KKT_ROWS = ["kkt_stationarity", "kkt_theta_psd_margin", "kkt_complementarity", "kkt_primal_sinr", "kkt_primal_power"]


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


def write_config(path, **overrides):
    # 10 dBm over 8x2 keeps the SINR constraints firmly active, where the
    # solver converges in a few thousand sweeps
    cfg = {
        "n_tx": 8,
        "n_users": 2,
        "p_t_dbm": 10.0,
        "gamma_db": 10.0,
        "sigma2_dbm": 0.0,
        "tol": 1e-9,
        "trials": 2,
        "base_seed": 7,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


class TestConfig:
    def test_unknown_field(self, tmp_path):
        p = write_config(tmp_path / "c.json", bogus=1)
        with pytest.raises(ConfigError, match="bogus"):
            load_config(p)

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

    def test_config_error_exit_code(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.json", bogus=1)
        assert main(["solve", "--config", str(p)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("name, value", [
        ("n_tx", "64"), ("n_users", 0), ("n_tx", 8.5), ("tau", -1), ("trials", True),
        ("p_t_dbm", None), ("gamma_db", "abc"), ("gamma_db", [10, "x"]), ("gamma_db", {"a": 1}),
        ("sigma2_dbm", "5"), ("p_t_dbm", 1e400),
        ("max_iters", -1), ("max_iters", 2.5), ("max_iters", True),
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


class TestSolveCommand:
    def test_solve_writes_solution_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "sol.json"
        code = main(["solve", "--config", str(cfg), "--seed", "3", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
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
        f = complex_matrix(doc["sensing_factor"])
        assert w.shape == (8, 2) and f.shape[0] == 8
        full = w @ w.conj().T + f @ f.conj().T
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
        code = main(["solve", "--config", str(cfg), "--seed", "1", "--allow-infeasible"])
        assert code == 0

    def test_allow_infeasible_writes_document(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", p_t_dbm=-30.0)
        out = tmp_path / "sol.json"
        code = main(["solve", "--config", str(cfg), "--seed", "1", "--allow-infeasible", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["feasible"] is False
        assert doc["p_low_mw"] > doc["scenario"]["power_budget_mw"]
        assert not {"objective", "sinr", "beamformers", "sensing_factor", "iterations"} & set(doc)

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

    def test_default_report_runs_no_check(self, tmp_path, capsys, monkeypatch):
        """Without --full-check, solve prints what the answer carries and
        does no dense work after the solve."""
        def dense_check(*args):
            raise AssertionError("dense check ran without --full-check")

        for module in (crbeam.cli, crbeam.verification):
            monkeypatch.setattr(module, "kkt_residuals", dense_check)
        for module in (crbeam.cli, crbeam.scenario):
            monkeypatch.setattr(module, "evaluate_crb_objective", dense_check)
        cfg = write_config(tmp_path / "c.json")
        assert main(["solve", "--config", str(cfg), "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("status: converged")
        removed = ["sinr_margin", "power_residual", "sensing_psd_margin", "range_leak",
                   "projector_gap", "cov_residual", "objective_gap", "kkt_"]
        assert not [key for key in removed if key in out]

    def test_solve_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        solve_raises(monkeypatch)
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "sol.json"
        assert main(["solve", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["solve failed: NotPSD: eigenvalue -1.000e-03 below -1e-08 * trace"]
        assert captured.out == ""
        assert not out.exists()


class TestSweepCommand:
    def sweep_config(self, tmp_path):
        return write_config(
            tmp_path / "sweep.json",
            n_tx=12,
            n_users=2,
            trials=2,
            sweep={"parameter": "Nt", "values": [8, 12]},
        )

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
        assert "Nt=8: 0/2 trials solved, 0 stopped at iteration_cap, 2 failed" in err
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

    def test_sweep_requires_sweep_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1


class TestFeasibilityCommand:
    def test_feasible(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        assert main(["feasibility", "--config", str(cfg), "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "p_low" in out and "feasible" in out

    def test_infeasible(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", p_t_dbm=-30.0)
        assert main(["feasibility", "--config", str(cfg), "--seed", "1"]) == 2


def test_verify_quick(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out
