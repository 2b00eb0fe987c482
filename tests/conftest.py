import os

# one BLAS thread, as CI and perfbench run: unpinned, a 1024 x 8 SVD can take
# ~100x longer on a 2-vCPU machine.  numpy reads these when it is first imported.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from crbeam.feasibility import compute_p_low  # noqa: E402
from crbeam.pipeline import solve_scenario  # noqa: E402
from crbeam.scenario import Scenario, generate_channel  # noqa: E402


def make_scenario(n_tx, n_users, power=100.0, gamma=10.0, noise=1.0):
    return Scenario(
        n_tx=n_tx,
        n_users=n_users,
        power_budget=power,
        sinr_thresholds=np.full(n_users, float(gamma)),
        noise_power=noise,
    )


def constrained_instance(n_tx, n_users, seed, factor=3.0, gamma=10.0, noise=1.0):
    """Scenario whose budget is `factor` times the minimum feasible power.

    Moderate factors give well-conditioned optima with strictly positive SINR
    multipliers, where the solver converges in a few thousand sweeps.
    """
    probe = make_scenario(n_tx, n_users, 1.0, gamma, noise)
    channel = generate_channel(probe, seed)
    p_low = compute_p_low(probe, channel).p_low
    return make_scenario(n_tx, n_users, factor * p_low, gamma, noise), channel


def random_hermitian(rng, dim, scale=1.0):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (a + a.conj().T)


def random_psd(rng, dim, scale=1.0):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (a @ a.conj().T) / dim


@pytest.fixture(scope="session")
def solved_k3():
    """Converged moderately constrained instance, shared across test modules."""
    scenario, channel = constrained_instance(12, 3, seed=4, factor=3.0)
    result = solve_scenario(scenario, channel)
    assert result.solve_report.status == "converged"
    return scenario, channel, result
