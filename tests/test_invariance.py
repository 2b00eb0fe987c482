"""Metamorphic tests: transforms of the channel that leave the problem unchanged,
and changes of the data that move the optimum one way.

A unitary rotation Q H of the array, a permutation of the users (with their
equal SINR targets) and a phase on each user's channel map feasible designs
onto feasible designs with the same tr(R^-1), so the solver must return the
same status and the same objective.  A larger budget enlarges the feasible
set and a larger SINR target shrinks it, so the optimal tr(R^-1) falls with
the budget and rises with a target.  A change of units moves the optimum in
closed form: scaling P_T and sigma^2 by b scales R by b and tr(R^-1) by 1/b,
and h -> a h with sigma^2 -> a^2 sigma^2 leaves every SINR and the optimum as
they are.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

from crbeam.pipeline import solve_scenario
from crbeam.rbal import SolverConfig
from crbeam.scenario import dbm_to_linear, generate_channel
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


MONOTONE = {"8x2": (8, 2, 3), "12x3": (12, 3, 4), "16x4": (16, 4, 5)}


@functools.cache
def converged_objective(name, factor, gamma0_db):
    """Objective at `factor` x p_low of the all-10 dB instance, with user 0's
    target set to gamma0_db; the solve must converge."""
    n_tx, k, seed = MONOTONE[name]
    scenario, channel = constrained_instance(n_tx, k, seed=seed, factor=factor)
    targets = scenario.sinr_thresholds.copy()
    targets[0] = dbm_to_linear(gamma0_db)
    status, objective = outcome(replace(scenario, sinr_thresholds=targets), channel)
    assert status == "converged"
    return objective


@pytest.mark.parametrize("name", list(MONOTONE))
def test_objective_falls_with_budget(name):
    high, mid, low = (converged_objective(name, factor, 10.0) for factor in (2.5, 3.0, 4.0))
    assert high > mid > low


@pytest.mark.parametrize("name", list(MONOTONE))
def test_objective_rises_with_target(name):
    low, mid, high = (converged_objective(name, 3.0, gamma0_db) for gamma0_db in (8.0, 10.0, 11.0))
    assert low < mid < high


SCALING = {"8x2": (8, 2, 3), "12x3": (12, 3, 4)}
SCALING_CAP = SolverConfig(max_iterations=3000)  # the unscaled copies converge in 1,154 and 2,318 sweeps


def capped_outcome(scenario, channel):
    result = solve_scenario(scenario, channel, SCALING_CAP)
    return result.solve_report.status, result.solution.objective


@functools.cache
def scaling_baseline(name):
    n_tx, k, seed = SCALING[name]
    scenario, channel = constrained_instance(n_tx, k, seed=seed, factor=3.0)
    return scenario, channel, capped_outcome(scenario, channel)


@pytest.mark.parametrize("name", list(SCALING))
def test_scaling_baseline_converges(name):
    """The unscaled copies converge under the cap, so the scaling tests below fail
    only through their scaled copies."""
    _, _, (status, _) = scaling_baseline(name)
    assert status == "converged"


NOT_UNIT_FREE = (
    "ROADMAP item 2: R-BAL is not unit-free, so a rescaled copy of a converging "
    "instance stops at the sweep cap away from the rescaled optimum"
)


@pytest.mark.xfail(strict=True, reason=NOT_UNIT_FREE)
@pytest.mark.parametrize("name", list(SCALING))
def test_objective_scales_with_budget_and_noise(name):
    b = 10.0
    scenario, channel, (_, objective) = scaling_baseline(name)
    scaled = replace(scenario, power_budget=b * scenario.power_budget, noise_power=b * scenario.noise_power)
    status, scaled_objective = capped_outcome(scaled, channel)
    assert status == "converged"
    assert b * scaled_objective == pytest.approx(objective, rel=1e-6)


@pytest.mark.xfail(strict=True, reason=NOT_UNIT_FREE)
@pytest.mark.parametrize("name", list(SCALING))
def test_objective_unchanged_by_channel_gain(name):
    a = 10.0
    scenario, channel, (_, objective) = scaling_baseline(name)
    status, scaled_objective = capped_outcome(replace(scenario, noise_power=a**2 * scenario.noise_power), a * channel)
    assert status == "converged"
    assert scaled_objective == pytest.approx(objective, rel=1e-6)
