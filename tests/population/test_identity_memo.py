"""The process-wide memo of sampled users' store identities.

A repeated population plan must derive byte-identical keys without
sampling, and no change of the content the memo keys on may ever hit
an entry another content filled.
"""

import json

import pytest

from repro import memo
from repro.experiments import Session, get_experiment, knob_mapping
from repro.population.campaign import IDENTITIES, PopulationRunner
from repro.population.distributions import PRESETS, resolve_spec
from repro.population.sampler import PopulationSampler
from repro.testbed.runner import TestRunner

PLANS = (("population-latency", {"samples": 250}),
         ("population-latency", {"samples": 500}),
         ("population-family-share", {}))


def plan_keys(name, knobs, seed=0):
    experiment = get_experiment(name)
    return experiment.plan(Session(
        seed=seed, knobs=knob_mapping(experiment, knobs))).keys()


@pytest.fixture
def sampled(monkeypatch):
    """The sample indices :meth:`PopulationSampler.user` is asked for."""
    indices = []
    user = PopulationSampler.user

    def counting(self, index):
        indices.append(index)
        return user(self, index)

    monkeypatch.setattr(PopulationSampler, "user", counting)
    return indices


def test_warm_plans_match_cold_plans_and_sample_nothing(sampled):
    cold = []
    for name, knobs in PLANS:
        IDENTITIES.clear()
        cold.append(plan_keys(name, knobs))
    for name, knobs in PLANS:
        plan_keys(name, knobs)
    del sampled[:]
    warm = [plan_keys(name, knobs) for name, knobs in PLANS]
    assert warm == cold
    assert sampled == []


def test_smaller_population_of_the_same_spec_samples_nothing(sampled):
    IDENTITIES.clear()
    plan_keys("population-latency", {"samples": 40})
    assert len(sampled) == 40
    del sampled[:]
    small = plan_keys("population-family-share", {"samples": 10})
    assert sampled == []
    IDENTITIES.clear()
    assert plan_keys("population-family-share", {"samples": 10}) == small


@pytest.mark.parametrize("change", [
    {"spec": "v6-challenged"},
    {"seed": 3},
    {"run_timeout": 12.0},
    {"resolver_timeout": 2.0},
    {"run_timeout": 30},  # equal to 30.0, but renders another digest
])
def test_a_changed_keyed_input_never_hits_a_stale_identity(change):
    """Each variant's memoized identities equal what the unmemoized
    default derives, and none is served from the base's entries."""
    base = dict(spec="default", seed=0, run_timeout=30.0,
                resolver_timeout=5.0)
    variant = dict(base, **change)

    def runner(spec, **kwargs):
        return PopulationRunner(resolve_spec(spec), 30, **kwargs)

    IDENTITIES.clear()
    runner(**base).plan()
    filled = len(IDENTITIES)
    changed = runner(**variant)
    changed.plan()
    assert len(IDENTITIES) == 2 * filled
    for index in range(changed.samples):
        assert (changed.identity(index, index)
                == TestRunner.identity(changed, index, index))


def reordered(value):
    """``value`` with the key order of every JSON object reversed."""
    if isinstance(value, dict):
        return {key: reordered(item)
                for key, item in reversed(list(value.items()))}
    return value


def test_json_key_order_shares_identities(sampled):
    forward = json.dumps(PRESETS["default"])
    backward = json.dumps(reordered(PRESETS["default"]))
    assert forward != backward
    IDENTITIES.clear()
    keys = plan_keys("population-latency", {"samples": 20, "spec": forward})
    filled = len(IDENTITIES)
    del sampled[:]
    assert plan_keys("population-latency",
                     {"samples": 20, "spec": backward}) == keys
    assert sampled == []
    assert len(IDENTITIES) == filled


def test_overflowing_the_memo_clears_it_and_keeps_keys(monkeypatch):
    IDENTITIES.clear()
    cold = plan_keys("population-latency", {"samples": 25})
    monkeypatch.setattr(memo, "MEMO_CAP", 8)
    IDENTITIES.clear()
    for _ in range(2):
        assert plan_keys("population-latency", {"samples": 25}) == cold
        assert len(IDENTITIES) < 8
