import csv
import json

import pytest

from crbeam.cli import ConfigError, RESULT_COLUMNS, load_config, main


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
    ], ids=["values-string", "top-level-number", "top-level-list", "sweep-list",
            "values-float", "values-bool"])
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

    def test_degenerate_single_user(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", n_tx=4, n_users=1, p_t_dbm=20.0)
        out = tmp_path / "sol.json"
        code = main(["solve", "--config", str(cfg), "--seed", "2", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["degenerate"] is True
        assert doc["objective"] == pytest.approx(0.16, rel=1e-12)

    def test_full_check_prints_kkt(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        code = main(["solve", "--config", str(cfg), "--seed", "3", "--full-check"])
        assert code == 0
        assert "kkt_stationarity" in capsys.readouterr().out


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
