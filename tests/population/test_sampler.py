"""PopulationSampler: determinism, profile mapping, and the targeted
store-key invalidation property spec edits rely on."""

import json

import pytest

from repro.dns.rdata import RdataType
from repro.population import (PRESETS, PopulationSampler,
                              PopulationRunner, PopulationSpec,
                              resolve_spec)
from repro.testbed.parallel import spec_keys
from repro.testbed.store import config_digest


def fixed_spec(stack="chromium", os="linux", cad_ms=250, rd_ms=50,
               resolver="responsive", impairment="healthy"):
    """A degenerate one-point population: every draw is forced."""
    return PopulationSpec.from_dict({
        "os": {os: 1.0},
        "stacks": {stack: 1.0},
        "cad_ms": cad_ms,
        "rd_ms": rd_ms,
        "resolvers": {resolver: 1.0},
        "impairments": {impairment: 1.0},
    })


class TestDeterminism:
    def test_same_coordinate_same_user(self):
        spec = resolve_spec("default")
        a = PopulationSampler(spec, seed=3)
        b = PopulationSampler(spec, seed=3)
        for index in range(40):
            left, right = a.user(index), b.user(index)
            assert (left.os, left.stack_family, left.cad_ms,
                    left.rd_ms, left.resolver, left.impairment) == (
                        right.os, right.stack_family, right.cad_ms,
                        right.rd_ms, right.resolver, right.impairment)
            assert (config_digest(left.profile)
                    == config_digest(right.profile))
            assert left.impairments == right.impairments

    def test_seed_moves_the_population(self):
        spec = resolve_spec("default")
        a = PopulationSampler(spec, seed=0)
        b = PopulationSampler(spec, seed=1)
        assert any(
            a.user(i).stack_family != b.user(i).stack_family
            or a.user(i).cad_ms != b.user(i).cad_ms
            for i in range(40))

    def test_fields_draw_independently(self):
        """One field's draw never perturbs another's: a sampler over a
        spec that pins the stack still samples the same OS/CAD/... as
        the default spec does at the same coordinate."""
        pinned = PopulationSpec.from_dict(
            dict(PRESETS["default"], stacks={"curl": 1.0}))
        default = PopulationSampler(resolve_spec("default"), seed=5)
        forced = PopulationSampler(pinned, seed=5)
        for index in range(25):
            a, b = default.user(index), forced.user(index)
            assert b.stack_family == "curl"
            assert (a.os, a.cad_ms, a.rd_ms, a.resolver,
                    a.impairment) == (b.os, b.cad_ms, b.rd_ms,
                                      b.resolver, b.impairment)

    def test_negative_index_rejected(self):
        sampler = PopulationSampler(resolve_spec("default"))
        with pytest.raises(ValueError, match=">= 0"):
            sampler.user(-1)


class TestProfileMapping:
    def sample(self, **kwargs):
        return PopulationSampler(fixed_spec(**kwargs), seed=0).user(0)

    def test_degenerate_spec_is_fully_forced(self):
        user = self.sample()
        assert user.os == "linux"
        assert user.stack_family == "chromium"
        assert user.cad_ms == 250.0
        assert user.rd_ms == 50.0
        assert user.resolver == "responsive"
        assert user.impairment == "healthy"
        assert user.impairments == ()

    def test_browser_profile_shape(self):
        user = self.sample(stack="chromium", cad_ms=200)
        profile = user.profile
        assert profile.name == "pop-chromium"
        assert profile.engine_family == "chromium"
        assert profile.kind == "browser"
        assert profile.implements_happy_eyeballs
        assert profile.query_first is RdataType.AAAA
        assert not profile.supports_web_tests

    def test_gecko_queries_a_first(self):
        assert (self.sample(stack="gecko").profile.query_first
                is RdataType.A)

    def test_wget_is_the_serial_no_he_tail(self):
        profile = self.sample(stack="wget").profile
        assert not profile.implements_happy_eyeballs
        assert profile.kind == "cli"
        assert profile.query_first is RdataType.A

    def test_hev3_maps_to_reference_engine(self):
        profile = self.sample(stack="hev3").profile
        assert profile.engine_family == "reference"
        assert profile.implements_happy_eyeballs

    def test_os_picks_the_sortlist(self):
        windows = self.sample(os="windows").profile
        android = self.sample(os="android").profile
        assert windows.os_hint.startswith("Windows")
        assert android.os_hint.startswith("Android")

    def test_resolver_and_mix_stanzas_compose(self):
        user = self.sample(resolver="lame-aaaa", impairment="v6-lossy")
        names = [spec.name for spec in user.impairments]
        assert names == ["resolver-lame-aaaa", "mix-v6-lossy"]

    def test_cad_floor_keeps_stage_validators_happy(self):
        # A zero-ms CAD draw floors to 1 ms (CAD must be positive);
        # webkit's dynamic-CAD cap additionally floors at 100 ms.
        self.sample(stack="curl", cad_ms=0)
        self.sample(stack="webkit", cad_ms=0)


class TestTargetedInvalidation:
    """The subsystem's headline property: editing a distribution
    invalidates exactly the sample keys the edit actually moves."""

    SAMPLES = 120

    def keys_by_sample(self, spec, samples=SAMPLES):
        runner = PopulationRunner(spec, samples, seed=0)
        specs = runner.enumerate_specs()
        keyed = {}
        for spec_item, entry in zip(specs, spec_keys(runner, specs)):
            keyed.setdefault(spec_item.case_index, set()).add(entry.key)
        return runner, keyed

    def test_spec_edit_invalidates_exactly_the_moved_samples(self):
        base = resolve_spec("default")
        edited = PopulationSpec.from_dict(dict(
            PRESETS["default"],
            stacks={"chromium": 0.50, "gecko": 0.23, "webkit": 0.14,
                    "curl": 0.06, "wget": 0.04, "hev3": 0.03}))
        assert base.digest() != edited.digest()
        before_runner, before = self.keys_by_sample(base)
        after_runner, after = self.keys_by_sample(edited)
        moved = {i for i in range(self.SAMPLES)
                 if (before_runner.user(i).stack_family
                     != after_runner.user(i).stack_family)}
        changed = {i for i in range(self.SAMPLES)
                   if before[i] != after[i]}
        assert moved  # the edit is big enough to move someone
        assert changed == moved
        # Unchanged samples keep byte-identical key sets: a warm store
        # replays them with zero misses after the edit.
        for i in range(self.SAMPLES):
            if i not in moved:
                assert before[i] == after[i]

    def test_unrelated_field_edit_leaves_stack_draws_alone(self):
        base = resolve_spec("default")
        edited = PopulationSpec.from_dict(dict(
            PRESETS["default"],
            resolvers={"responsive": 0.70, "slow": 0.20,
                       "lame-aaaa": 0.10}))
        a = PopulationSampler(base, seed=0)
        b = PopulationSampler(edited, seed=0)
        for i in range(60):
            assert a.user(i).stack_family == b.user(i).stack_family
            assert a.user(i).cad_ms == b.user(i).cad_ms


class TestRunnerShape:
    def test_paired_enumeration_not_cross_product(self):
        runner = PopulationRunner(resolve_spec("default"), 5, seed=0)
        specs = runner.enumerate_specs()
        assert len(specs) == 5 * len(runner.degradation)
        assert all(s.case_index == s.client_index for s in specs)
        assert all(s.repetition == 0 for s in specs)

    def test_plan_keys_are_distinct(self):
        runner = PopulationRunner(resolve_spec("default"), 10, seed=0)
        keys = runner.plan().keys()
        assert len(keys) == len(set(keys)) == 10 * 3

    def test_runner_pickles_as_its_recipe(self):
        import pickle

        runner = PopulationRunner(resolve_spec("default"), 50, seed=4)
        clone = pickle.loads(pickle.dumps(runner))
        assert clone.samples == 50
        assert clone.seed == 4
        assert (clone.population_spec.digest()
                == runner.population_spec.digest())
        # The memo does not travel: workers materialize lazily.
        assert clone._memo == {}
        assert (config_digest(clone.user(7).profile)
                == config_digest(runner.user(7).profile))

    def test_sample_columns_are_lazy_sequences(self):
        runner = PopulationRunner(resolve_spec("default"), 8, seed=0)
        assert len(runner.cases) == len(runner.clients) == 8
        assert runner._memo == {}
        assert runner.cases[2].name == "pop-000002"
        assert runner.clients[-1].name.startswith("pop-")
        assert len(runner.cases[1:3]) == 2
        assert set(runner._memo) == {1, 2, 7}

    def test_samples_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            PopulationRunner(resolve_spec("default"), 0)
