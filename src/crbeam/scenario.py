"""Problem instances: array/user sizes, power budget, SINR targets, channels.

All internal computation is in linear units (mW); dB/dBm conversions happen
once at the configuration boundary.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import COND_TOL, trace_inverse


class SingularCovariance(Exception):
    """Covariance is numerically singular; trace-inverse objective undefined."""


@dataclass(frozen=True)
class Scenario:
    """Downlink instance: Nt antennas serving K single-antenna users.

    power_budget and noise_power are linear mW; sinr_thresholds are linear
    ratios, one per user, or one scalar for every user.
    """

    n_tx: int
    n_users: int
    power_budget: float
    sinr_thresholds: np.ndarray
    noise_power: float

    def __post_init__(self):
        sizes = (self.n_tx, self.n_users)
        if any(isinstance(n, bool) or not isinstance(n, (int, np.integer)) for n in sizes) or sizes[1] < 1:
            raise ValueError(f"n_tx and n_users must be integers >= 1, got {sizes}")
        if self.n_tx <= self.n_users:
            raise ValueError(f"need n_tx > n_users, got {self.n_tx} <= {self.n_users}")
        thresholds = np.asarray(self.sinr_thresholds, dtype=float)
        if thresholds.ndim == 0:
            thresholds = np.full(self.n_users, thresholds)
        object.__setattr__(self, "sinr_thresholds", thresholds)
        if thresholds.shape != (self.n_users,):
            raise ValueError(f"sinr_thresholds must be a scalar or hold n_users = {self.n_users} entries")
        values = np.append(thresholds, [self.power_budget, self.noise_power])
        if not np.all((values > 0) & np.isfinite(values)):
            raise ValueError("powers and SINR thresholds must be finite and strictly positive")


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
    """Per-user SINR of the beamformer matrix (one column per user) under the
    covariance of the sensing stream.

    Any orthonormal basis that contains the channels will do: with channels
    Nt x K and covariance Nt x Nt, or with U^H h_k, U^H w_k and U^H S U in an
    Nt x K basis U whose range holds every h_k, the SINRs are the same."""
    if beamformers.shape != channel.shape:
        raise ValueError(f"beamformer shape {beamformers.shape} does not match channel {channel.shape}")
    gains = np.abs(channel.conj().T @ beamformers) ** 2  # gains[k, i] = |h_k^H w_i|^2
    signal = np.diag(gains)
    interference = gains.sum(axis=1) - signal
    sensing = np.einsum("ik,ik->k", channel.conj(), sensing_cov @ channel).real
    return signal / (interference + sensing + noise)


def evaluate_crb_objective(cov):
    """tr(cov^-1) for a Hermitian covariance; SingularCovariance where trace_inverse reads inf."""
    eigs = np.linalg.eigvalsh(cov)
    if (objective := trace_inverse(eigs)) == np.inf:
        raise SingularCovariance(f"min eigenvalue {eigs[0]:.3e} <= {COND_TOL:.0e} * {eigs[-1]:.3e}")
    return objective
