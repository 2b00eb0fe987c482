import os
import subprocess
import sys
from pathlib import Path

# one BLAS thread, as CI and perfbench run: unpinned, a 1024 x 8 SVD can take
# ~100x longer on a 2-vCPU machine.  numpy reads these when it is first imported.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import crbeam  # noqa: E402
from crbeam.feasibility import compute_p_low  # noqa: E402
from crbeam.pipeline import solve_scenario  # noqa: E402
from crbeam.scenario import Scenario, generate_channel  # noqa: E402


def run_python(*args):
    """The finished `python *args` in a fresh interpreter that imports this
    crbeam, with its output as text."""
    src = str(Path(crbeam.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )


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
    multipliers. At factor 3 the solver took 981-9,852 sweeps on perfbench's
    first five `constrained` seed-1 instances (8x2 to 32x8), and on the ten
    32-antenna instances of acceptance criterion 6 7,294-9,396 at K=8,
    22,879-28,190 at K=4 and 33,800-70,361 at K=2.
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
