"""Problem instances: array/user sizes, power budget, SINR targets, channels.

All internal computation is in linear units (mW); dB/dBm conversions happen
once at the configuration boundary.
"""

from dataclasses import dataclass

import numpy as np


class SingularCovariance(Exception):
    """Covariance is numerically singular; trace-inverse objective undefined."""


@dataclass(frozen=True)
class Scenario:
    """Downlink instance: Nt antennas serving K single-antenna users.

    power_budget and noise_power are linear mW; sinr_thresholds are linear
    ratios (one per user).
    """

    n_tx: int
    n_users: int
    power_budget: float
    sinr_thresholds: np.ndarray
    noise_power: float

    def __post_init__(self):
        thresholds = np.atleast_1d(np.asarray(self.sinr_thresholds, dtype=float))
        if thresholds.size == 1 and self.n_users > 1:
            thresholds = np.full(self.n_users, thresholds[0])
        object.__setattr__(self, "sinr_thresholds", thresholds)
        if self.n_tx <= self.n_users:
            raise ValueError(f"need n_tx > n_users, got {self.n_tx} <= {self.n_users}")
        if thresholds.size != self.n_users:
            raise ValueError("sinr_thresholds length must equal n_users")
        if not (self.power_budget > 0 and self.noise_power > 0 and np.all(thresholds > 0)):
            raise ValueError("powers and SINR thresholds must be strictly positive")


def dbm_to_linear(x_db):
    """dBm -> mW (or dB -> linear ratio)."""
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def linear_to_dbm(x):
    """mW -> dBm (or linear ratio -> dB)."""
    return 10.0 * np.log10(np.asarray(x, dtype=float))


def generate_channel(scenario, seed):
    """Draw an Nt x K channel with i.i.d. CN(0, 1) entries.

    Deterministic in (dims, seed); real and imaginary parts each have
    variance 1/2 so every entry has unit variance.
    """
    rng = np.random.default_rng(seed)
    shape = (scenario.n_tx, scenario.n_users)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def evaluate_sinr(channel, beamformers, sensing_cov, noise):
    """Per-user SINR of beamforming vectors w_k under sensing covariance.

    beamformers may be an Nt x K matrix (columns per user) or a list of K
    vectors.  sensing_cov is the Nt x Nt covariance of the sensing stream.
    """
    h = np.asarray(channel)
    if isinstance(beamformers, np.ndarray) and beamformers.ndim == 2:
        w = beamformers
    else:
        w = np.column_stack([np.ravel(v) for v in beamformers])
    if w.shape != h.shape:
        raise ValueError(f"beamformer shape {w.shape} does not match channel {h.shape}")
    k = h.shape[1]
    gains = np.abs(h.conj().T @ w) ** 2          # gains[k, i] = |h_k^H w_i|^2
    signal = np.diag(gains).copy()
    interference = gains.sum(axis=1) - signal
    if sensing_cov is None:
        sensing = np.zeros(k)
    else:
        sensing = np.einsum("ik,ik->k", h.conj(), sensing_cov @ h).real
    return signal / (interference + sensing + noise)


def evaluate_crb_objective(cov, cond_tol=1e-12):
    """tr(cov^-1) for a positive definite Hermitian covariance."""
    eigs = np.linalg.eigvalsh(cov)
    if eigs[0] <= cond_tol * eigs[-1]:
        raise SingularCovariance(f"min eigenvalue {eigs[0]:.3e} <= {cond_tol:.0e} * {eigs[-1]:.3e}")
    return float(np.sum(1.0 / eigs))
