"""Benchmark workloads: instance sets that are a deterministic function of the seed.

Every instance uses 10 dB SINR targets for all users and 0 dBm noise.  The
channel is drawn here, with the benchmark's own generator, so the program
under test receives only the generated inputs.  Budgets are either a fixed
P_T in dBm or a multiple of the drawn channel's minimum feasible power
p_low, which comes from the program's own feasibility probe.
"""

import zlib
from dataclasses import dataclass

import numpy as np

from crbeam.feasibility import compute_p_low
from crbeam.scenario import Scenario

SINR_DB = 10.0
NOISE_MW = 1.0  # 0 dBm


@dataclass(frozen=True)
class Workload:
    name: str
    shapes: tuple            # (n_tx, n_users) pairs; one cycle solves each once, in order
    p_t_dbm: float | None    # fixed budget, or None to scale by p_low
    p_low_factor: float | None
    pool_cycles: int         # cycles of distinct instances drawn per run
    quick_shape: tuple       # small shape for the self-check, same budget rule


WORKLOADS = {
    w.name: w
    for w in (
        # Paper defaults: a flat isotropic optimum after ~17k sweeps, so the
        # rbal sweep loop and its root finders take nearly all of the time.
        Workload(
            name="paper-default",
            shapes=((64, 8),),
            p_t_dbm=20.0,
            p_low_factor=None,
            pool_cycles=8,
            quick_shape=(128, 4),
        ),
        # 3x p_low: active SINR multipliers and a non-isotropic optimum.  Sweep
        # counts vary up to 2x with the channel draw, so the median of a
        # 20-30 s run moves ~50% between seeds: runnable by name, not listed
        # in BENCHMARK.json.
        Workload(
            name="constrained",
            shapes=((8, 2), (12, 3), (16, 4), (24, 4), (32, 8)),
            p_t_dbm=None,
            p_low_factor=3.0,
            pool_cycles=12,
            quick_shape=(8, 2),
        ),
        # Large arrays: 100-250 sweeps, so recovery's Nt x Nt products and
        # eigendecompositions and the two Nt x K SVDs dominate.  One Nt keeps
        # the solve times in one cluster, so a run's median is not the midpoint
        # of a gap between two.
        Workload(
            name="wide-array",
            shapes=((1024, 4), (1024, 8)),
            p_t_dbm=20.0,
            p_low_factor=None,
            pool_cycles=16,
            quick_shape=(256, 2),
        ),
        # 1.5x p_low: slow convergence near the feasibility boundary.  One
        # solve takes 4 s to over 2 minutes, and some stop at the sweep cap:
        # runnable by name, not listed in BENCHMARK.json.
        Workload(
            name="near-boundary",
            shapes=((8, 2), (12, 3), (16, 4), (24, 4), (32, 8)),
            p_t_dbm=None,
            p_low_factor=1.5,
            pool_cycles=1,
            quick_shape=(8, 2),
        ),
    )
}


@dataclass(frozen=True)
class Instance:
    index: int
    label: str
    scenario: Scenario
    channel: np.ndarray


def draw_channel(seed, workload_name, index, n_tx, n_users):
    """Nt x K channel with i.i.d. CN(0, 1) entries, fixed by (seed, workload, index)."""
    rng = np.random.default_rng([seed, zlib.crc32(workload_name.encode()), index])
    shape = (n_tx, n_users)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def make_scenario(n_tx, n_users, power_mw):
    return Scenario(
        n_tx=n_tx,
        n_users=n_users,
        power_budget=power_mw,
        sinr_thresholds=np.full(n_users, 10.0 ** (SINR_DB / 10.0)),
        noise_power=NOISE_MW,
    )


def make_instance(workload, seed, index, shape):
    n_tx, n_users = shape
    channel = draw_channel(seed, workload.name, index, n_tx, n_users)
    if workload.p_t_dbm is not None:
        power = 10.0 ** (workload.p_t_dbm / 10.0)
        label = f"{n_tx}x{n_users}@{workload.p_t_dbm:g}dBm"
    else:
        p_low = compute_p_low(make_scenario(n_tx, n_users, 1.0), channel).p_low
        power = workload.p_low_factor * p_low
        label = f"{n_tx}x{n_users}@{workload.p_low_factor:g}p_low"
    return Instance(index, label, make_scenario(n_tx, n_users, power), channel)


def instance_pool(workload, seed, quick=False):
    """The run's instances in solve order: pool_cycles passes over the shapes.

    Quick mode draws a single instance of the workload's small shape.
    """
    if quick:
        return [make_instance(workload, seed, 0, workload.quick_shape)]
    shapes = workload.shapes * workload.pool_cycles
    return [make_instance(workload, seed, i, shape) for i, shape in enumerate(shapes)]
