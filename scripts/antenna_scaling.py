#!/usr/bin/env python3
"""Per-iteration runtime versus antenna count at fixed K.

The solver sweep touches only K x K objects, so the per-iteration time should
stay flat while the setup (one thin SVD plus the Gram fixed point) grows at
most linearly in Nt.  Prints one line per antenna count.
"""

import time

import numpy as np

from crbeam.feasibility import compute_p_low
from crbeam.rbal import default_stepsize, initial_state, iterate
from crbeam.reduction import build_reduced, precompute_dual
from crbeam.scenario import Scenario, generate_channel

K = 8
ANTENNAS = [16, 24, 32, 48, 64, 96, 128]
SWEEPS = 500
SEED = 1

print(f"K={K}, {SWEEPS} timed sweeps per antenna count, seed {SEED}")
print(f"{'Nt':>5} {'setup_ms':>10} {'us_per_iter':>12}")
for n_tx in ANTENNAS:
    scenario = Scenario(n_tx, K, 100.0, np.full(K, 10.0), 1.0)
    channel = generate_channel(scenario, SEED)

    t0 = time.perf_counter()
    compute_p_low(scenario, channel)
    instance = build_reduced(scenario, channel)
    dual = precompute_dual(instance, 1e-4)
    setup = time.perf_counter() - t0

    tau = default_stepsize(instance)
    state = initial_state(instance)
    for _ in range(50):  # warm-up
        state = iterate(state, instance, dual, tau)
    t1 = time.perf_counter()
    for _ in range(SWEEPS):
        state = iterate(state, instance, dual, tau)
    per_iter = (time.perf_counter() - t1) / SWEEPS
    print(f"{n_tx:>5} {setup * 1e3:>10.2f} {per_iter * 1e6:>12.1f}")
