import numpy as np
import pytest
from hypothesis import given, strategies as st

from crbeam.scenario import (
    Scenario,
    SingularCovariance,
    dbm_to_linear,
    evaluate_crb_objective,
    evaluate_sinr,
    generate_channel,
    linear_to_dbm,
)
from conftest import make_scenario


def test_dbm_paper_defaults():
    assert dbm_to_linear(20.0) == pytest.approx(100.0, rel=1e-12)
    assert dbm_to_linear(0.0) == 1.0
    assert dbm_to_linear(10.0) == pytest.approx(10.0, rel=1e-12)


@given(st.floats(-60.0, 60.0, allow_nan=False))
def test_dbm_round_trip(x_db):
    x = dbm_to_linear(x_db)
    assert float(linear_to_dbm(x)) == pytest.approx(x_db, abs=1e-10)


def test_scenario_validation():
    with pytest.raises(ValueError):
        make_scenario(4, 4)
    with pytest.raises(ValueError):
        make_scenario(4, 2, power=-1.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            make_scenario(4, 2, power=bad)
        with pytest.raises(ValueError):
            make_scenario(4, 2, noise=bad)
        with pytest.raises(ValueError):
            make_scenario(4, 2, gamma=bad)
    with pytest.raises(ValueError):
        Scenario(8, 3, 10.0, np.array([5.0]), 1.0)  # a list needs one entry per user
    sc = Scenario(8, 3, 10.0, 5.0, 1.0)  # scalar threshold broadcast
    assert sc.sinr_thresholds.shape == (3,)
    # sizes are integers >= 1: no bools or floats, numpy integers are fine
    for n_tx, n_users in ((4, 0), (4.5, 2), (4, 2.0), (True, 1), (4, True), ("4", 2), (4, -1)):
        with pytest.raises(ValueError, match="integers >= 1"):
            Scenario(n_tx, n_users, 1.0, 10.0, 1.0)
    sc = Scenario(np.int64(4), np.int32(2), 1.0, 10.0, 1.0)
    assert sc.sinr_thresholds.shape == (2,)


class TestGenerateChannel:
    def test_deterministic(self):
        sc = make_scenario(16, 4)
        a = generate_channel(sc, 123)
        b = generate_channel(sc, 123)
        assert np.array_equal(a, b)

    def test_seed_changes_draw(self):
        sc = make_scenario(16, 4)
        assert not np.array_equal(generate_channel(sc, 1), generate_channel(sc, 2))

    def test_unit_variance(self):
        sc = make_scenario(64, 8)
        total = 0.0
        for trial in range(1000):
            h = generate_channel(sc, 5000 + trial)
            total += np.mean(np.abs(h) ** 2)
        mean_power = total / 1000
        assert 0.98 <= mean_power <= 1.02


class TestEvaluateSinr:
    def test_matched_filter_single_user(self):
        sc = make_scenario(4, 1, noise=2.0)
        h = np.array([1.0, 1j, 0.0, 0.0], dtype=complex).reshape(4, 1)
        p = 3.0
        w = np.sqrt(p) * h / np.linalg.norm(h)
        sinr = evaluate_sinr(h, w, np.zeros((4, 4)), sc.noise_power)
        assert sinr[0] == pytest.approx(p * 2.0 / 2.0, rel=1e-12)

    def test_orthogonal_users_no_cross_terms(self):
        h = np.eye(4, dtype=complex)[:, :2]
        w = 2.0 * h  # aligned beams
        sinr = evaluate_sinr(h, w, np.zeros((4, 4)), 1.0)
        assert np.allclose(sinr, 4.0, rtol=1e-12)

    def test_sensing_term(self):
        h = np.eye(3, dtype=complex)[:, :1]
        sensing = np.eye(3) * 0.5
        sinr = evaluate_sinr(h, np.array([[1.0], [0.0], [0.0]]), sensing, 0.5)
        assert sinr[0] == pytest.approx(1.0 / (0.5 + 0.5), rel=1e-12)

    def test_dimension_mismatch(self):
        h = np.eye(4, dtype=complex)[:, :2]
        with pytest.raises(ValueError):
            evaluate_sinr(h, np.ones((3, 2), dtype=complex), np.zeros((4, 4)), 1.0)


class TestCrbObjective:
    def test_isotropic(self):
        assert evaluate_crb_objective((100.0 / 4.0) * np.eye(4)) == pytest.approx(0.16, rel=1e-12)

    def test_diag(self):
        assert evaluate_crb_objective(np.diag([2.0, 2.0])) == pytest.approx(1.0, rel=1e-12)

    def test_scaling_property(self):
        rng = np.random.default_rng(0)
        for n in (2, 5, 9):
            c = float(10.0 ** rng.uniform(-3, 3))
            assert evaluate_crb_objective(c * np.eye(n)) == pytest.approx(n / c, rel=1e-12)

    def test_singular_raises(self):
        cov = np.diag([1.0, 0.0])
        with pytest.raises(SingularCovariance):
            evaluate_crb_objective(cov)
