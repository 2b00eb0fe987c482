from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crbeam.linalg import (
    COND_TOL,
    InvalidBracket,
    RankDeficientChannel,
    compact_svd,
    monotone_scalar_root,
    null_space_basis,
    positive_cubic_root,
    trace_inverse,
)


class TestCompactSvd:
    def test_identity_columns(self):
        m = np.eye(6, dtype=complex)[:, :3]
        u, s, vh = compact_svd(m)
        assert np.allclose(s, 1.0)
        assert np.allclose(u @ np.diag(s) @ vh, m, atol=1e-12)
        # left basis spans the same columns
        assert np.linalg.norm(u @ u.conj().T @ m - m) < 1e-12

    def test_scaled_single_column(self):
        m = np.zeros((5, 1), dtype=complex)
        m[0, 0] = 2.0
        u, s, _ = compact_svd(m)
        assert abs(s[0] - 2.0) < 1e-14
        assert abs(abs(u[0, 0]) - 1.0) < 1e-14

    def test_orthonormal_columns_random(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        u, s, vh = compact_svd(m)
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-10
        assert np.linalg.norm(u @ np.diag(s) @ vh - m) < 1e-9 * np.linalg.norm(m)

    def test_rank_deficient_raises(self):
        m = np.ones((6, 2), dtype=complex)
        with pytest.raises(RankDeficientChannel):
            compact_svd(m)


class TestNullSpaceBasis:
    def test_c2(self):
        m = np.array([[1.0], [0.0]], dtype=complex)
        basis = null_space_basis(m)
        assert basis.shape == (2, 1)
        assert abs(abs(basis[1, 0]) - 1.0) < 1e-14

    def test_identity_columns(self):
        m = np.eye(4, dtype=complex)[:, :2]
        basis = null_space_basis(m)
        assert basis.shape == (4, 2)
        span = basis @ basis.conj().T
        expect = np.zeros((4, 4))
        expect[2, 2] = expect[3, 3] = 1.0
        assert np.allclose(span, expect, atol=1e-12)

    def test_random(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        basis = null_space_basis(m)
        assert np.max(np.abs(basis.conj().T @ basis - np.eye(4))) < 1e-10
        assert np.max(np.abs(m.conj().T @ basis)) < 1e-10 * np.linalg.norm(m)

    def test_rank_deficient_raises(self):
        m = np.ones((6, 2), dtype=complex)
        with pytest.raises(RankDeficientChannel):
            null_space_basis(m)


class TestPositiveCubicRoot:
    def test_pure_cube(self):
        assert abs(positive_cubic_root(0.0, 8.0) - 2.0) < 1e-12

    def test_known_root(self):
        # 27 - 2*9 - 9 = 0
        assert abs(positive_cubic_root(2.0, 9.0) - 3.0) < 1e-12

    def test_small_tau_limit(self):
        root = positive_cubic_root(5.0, 1e-9)
        assert root > 5.0
        assert abs(root - 5.0) < 1e-10

    def test_residual_many_random(self):
        rng = np.random.default_rng(7)
        sigma = rng.uniform(-10.0, 10.0, 1000)
        tau = 10.0 ** rng.uniform(-6.0, 3.0, 1000)
        x = np.array([positive_cubic_root(s, t) for s, t in zip(sigma, tau)])
        residual = np.abs(x * x * (x - sigma) - tau)
        bound = 1e-12 * np.maximum(1.0, np.maximum(np.abs(sigma) ** 3, tau))
        assert np.all(residual <= bound)

    @settings(deadline=None, max_examples=200)
    @given(
        sigma=st.floats(-10.0, 10.0, allow_nan=False),
        tau=st.floats(1e-6, 1e3, allow_nan=False),
    )
    def test_residual_property(self, sigma, tau):
        x = positive_cubic_root(sigma, tau)
        assert x > 0
        bound = 1e-12 * max(1.0, abs(sigma) ** 3, tau)
        assert abs(x * x * (x - sigma) - tau) <= bound

    def test_exact_bracket(self):
        # f(x) = x^2 (x - sigma) - tau, evaluated in exact rationals, changes
        # sign within 1e-14 relative of the returned root
        rng = np.random.default_rng(11)
        sigmas = rng.choice([-1.0, 1.0], 300) * 10.0 ** rng.uniform(-100.0, 100.0, 300)
        taus = 10.0 ** rng.uniform(-200.0, 200.0, 300)
        # tau << |sigma|^3 with sigma < 0, where the scaled tau underflows
        underflow = [(-8.428046468967258e77, 2.2128998574804284e-123), (-1e100, 1e-10), (-3e40, 1e-200)]
        cases = [(0.0, 1e-300), (0.0, 1e-30), (-5.0, 1e-40), *underflow, *zip(sigmas, taus)]
        rel = Fraction(1, 10**14)
        missed = []
        for sigma, tau in cases:
            x = Fraction(positive_cubic_root(sigma, tau))
            lo, hi = (y * y * (y - Fraction(sigma)) - Fraction(tau) for y in (x * (1 - rel), x * (1 + rel)))
            if not lo < 0 < hi:
                missed.append((sigma, tau, float(x)))
        assert not missed

    @pytest.mark.parametrize("tau", [0.0, -0.0, -1.0, -np.inf])
    def test_nonpositive_tau_raises(self, tau):
        with pytest.raises(ValueError, match="tau must be strictly positive"):
            positive_cubic_root(1.0, tau)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "sigma, tau", [(np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0), (1.0, np.nan), (-1.0, np.nan)]
    )
    def test_non_finite_input_is_nan(self, sigma, tau):
        assert np.isnan(positive_cubic_root(sigma, tau))

    def test_largest_sigma(self):
        assert positive_cubic_root(1.7e308, 1.0) == 1.7e308

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(deadline=None, max_examples=500)
    @given(
        sigma=st.floats(allow_nan=False, allow_infinity=False),
        tau=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    def test_finite_input_never_raises(self, sigma, tau):
        x = positive_cubic_root(sigma, tau)
        assert 0.0 < x < np.inf

    @settings(deadline=None, max_examples=200)
    @given(
        sigma=st.floats(-10.0, 10.0, allow_nan=False),
        tau=st.floats(1e-6, 1e3, allow_nan=False),
        log_c=st.floats(-30.0, 30.0, allow_nan=False),
    )
    def test_scale_covariance(self, sigma, tau, log_c):
        c = 10.0**log_c
        scaled = positive_cubic_root(c * sigma, c**3 * tau)
        assert abs(scaled - c * positive_cubic_root(sigma, tau)) <= 1e-14 * scaled


class TestMonotoneScalarRoot:
    def test_linear(self):
        assert abs(monotone_scalar_root(lambda x: x - 1.0, 0.0, 2.0) - 1.0) < 1e-13

    def test_sqrt2(self):
        root = monotone_scalar_root(lambda x: x * x - 2.0, 1.0, 2.0)
        assert abs(root - np.sqrt(2.0)) < 1e-13

    def test_shrinkage_equation_shape(self):
        # lam * (P_T - 0)^2 - tau (Nt-K)^2 with P_T=2, Nt-K=2, tau=1: 4 lam - 4
        root = monotone_scalar_root(lambda lam: lam * 4.0 - 4.0, 0.0, 5.0)
        assert abs(root - 1.0) < 1e-13

    def test_invalid_bracket(self):
        with pytest.raises(InvalidBracket):
            monotone_scalar_root(lambda x: x + 10.0, 0.0, 1.0)


class TestTraceInverse:
    def test_dense_and_block_spectra_agree(self):
        """eig(Y) plus theta of multiplicity m is the spectrum of U Y U^H + theta P_null."""
        eigs = np.array([0.5, 2.0, 4.0])
        dense = np.concatenate([eigs, np.full(5, 0.25)])
        assert trace_inverse(eigs, 0.25, 5) == pytest.approx(trace_inverse(dense), rel=1e-15)
        assert trace_inverse(eigs, 0.25, 5) == pytest.approx(2.0 + 0.5 + 0.25 + 20.0, rel=1e-15)

    @pytest.mark.parametrize("ratio, singular", [(0.5 * COND_TOL, True), (COND_TOL, True), (2.0 * COND_TOL, False)])
    def test_threshold_on_either_part(self, ratio, singular):
        """lambda_min <= COND_TOL lambda_max reads inf, whether lambda_min is theta,
        an eigenvalue of the block, or a dense eigenvalue."""
        top = 3.0
        for value in (
            trace_inverse(np.array([1.0, top]), ratio * top, 4),
            trace_inverse(np.array([ratio * top, top]), 1.0, 4),
            trace_inverse(np.array([ratio * top, 1.0, top])),
        ):
            assert (value == np.inf) == singular
            assert value > 0.0

    @pytest.mark.parametrize("theta", [0.0, -1e-300, -1.0])
    def test_spent_or_overspent_null_level_is_singular(self, theta):
        assert trace_inverse(np.array([1.0, 2.0]), theta, 3) == np.inf

    def test_nonpositive_dense_spectrum_is_singular(self):
        assert trace_inverse(np.array([-1e-20, 1.0])) == np.inf
        assert trace_inverse(np.array([-2.0, -1.0])) == np.inf
