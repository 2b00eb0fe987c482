"""Metamorphic tests: transforms of the channel that leave the problem unchanged.

A unitary rotation Q H of the array, a permutation of the users (with their
equal SINR targets) and a phase on each user's channel map feasible designs
onto feasible designs with the same tr(R^-1), so the solver must return the
same status and the same objective.
"""

import functools

import numpy as np
import pytest

from crbeam.pipeline import solve_scenario
from crbeam.scenario import generate_channel
from conftest import constrained_instance, make_scenario


def instance(name):
    if name == "64x8-20dBm":
        scenario = make_scenario(64, 8, power=100.0)
        return scenario, generate_channel(scenario, 1)
    n_tx, k, seed = {"8x2": (8, 2, 3), "16x4": (16, 4, 5)}[name]
    return constrained_instance(n_tx, k, seed=seed, factor=3.0)


def rotate(channel, rng):
    n = channel.shape[0]
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q @ channel


def permute(channel, rng):
    # a cyclic shift, never the identity
    return channel[:, np.roll(np.arange(channel.shape[1]), 1)]


def phase(channel, rng):
    return channel * np.exp(2j * np.pi * rng.random(channel.shape[1]))[None, :]


def outcome(scenario, channel):
    result = solve_scenario(scenario, channel)
    status = "closed-form" if result.degenerate else result.solve_report.status
    return status, result.solution.objective


@functools.cache
def baseline(name):
    return outcome(*instance(name))


@pytest.mark.parametrize("transform", [rotate, permute, phase])
@pytest.mark.parametrize("name", ["8x2", "16x4", "64x8-20dBm"])
def test_transform_keeps_answer(name, transform):
    scenario, channel = instance(name)
    status, objective = baseline(name)
    assert status in ("converged", "closed-form")
    moved_status, moved_objective = outcome(scenario, transform(channel, np.random.default_rng(7)))
    assert moved_status == status
    assert moved_objective == pytest.approx(objective, rel=1e-9)
