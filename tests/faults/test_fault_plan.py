"""The deterministic fault-plan model (parse, targeting, bounds)."""

import pickle

import pytest

from repro.faults import (ENTRY_KINDS, STORE_KINDS, WRITE_KINDS, FaultKind,
                          FaultPlan, FaultPlanError, FaultSpec,
                          InjectedFault, inject_entry_fault)


class TestParse:
    def test_single_kind_defaults(self):
        plan = FaultPlan.parse("crash")
        assert plan.specs == (FaultSpec(kind=FaultKind.WORKER_CRASH),)

    def test_full_spec_fields(self):
        plan = FaultPlan.parse("hang:0.5:2:0.75", seed=9)
        (spec,) = plan.specs
        assert spec.kind is FaultKind.ENTRY_HANG
        assert spec.rate == 0.5
        assert spec.attempts == 2
        assert spec.hang_s == 0.75
        assert plan.seed == 9

    def test_comma_separated_streams(self):
        plan = FaultPlan.parse("crash:0.3,corrupt:0.5,io-error")
        assert [s.kind for s in plan.specs] == [
            FaultKind.WORKER_CRASH, FaultKind.CORRUPT_WRITE,
            FaultKind.IO_ERROR]

    def test_unknown_kind(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultPlan.parse("meteor:0.5")

    def test_bad_rate(self):
        with pytest.raises(FaultPlanError, match="rate"):
            FaultPlan.parse("crash:1.5")

    def test_bad_attempts(self):
        with pytest.raises(FaultPlanError, match="attempts"):
            FaultPlan.parse("crash:0.5:0")

    def test_too_many_fields(self):
        with pytest.raises(FaultPlanError, match="too many fields"):
            FaultPlan.parse("crash:0.5:1:0.1:extra")

    def test_empty_plan(self):
        with pytest.raises(FaultPlanError, match="empty"):
            FaultPlan.parse(" , ")

    def test_non_numeric_rate(self):
        with pytest.raises(FaultPlanError, match="bad fault spec"):
            FaultPlan.parse("crash:lots")


class TestKindSets:
    def test_partition(self):
        assert ENTRY_KINDS | STORE_KINDS == frozenset(FaultKind)
        assert not ENTRY_KINDS & STORE_KINDS
        assert WRITE_KINDS < STORE_KINDS


class TestTargeting:
    def test_pure_function_of_seed_and_coords(self):
        a = FaultPlan.parse("crash:0.5", seed=3)
        b = FaultPlan.parse("crash:0.5", seed=3)
        coords = ("cad", "Chrome 130.0", 150, 0)
        assert a.entry_fault(coords, 0) == b.entry_fault(coords, 0)

    def test_seed_changes_targets(self):
        coords = [("cad", f"client-{i}", i * 10, 0) for i in range(40)]
        hits = {seed: [c for c in coords
                       if FaultPlan.parse("crash:0.5", seed=seed)
                       .entry_fault(c, 0)]
                for seed in (1, 2)}
        assert hits[1] != hits[2]

    def test_rate_extremes(self):
        coords = [("cad", f"client-{i}", 0, 0) for i in range(20)]
        never = FaultPlan.parse("crash:0.0", seed=1)
        always = FaultPlan.parse("crash:1.0", seed=1)
        assert not any(never.entry_fault(c, 0) for c in coords)
        assert all(always.entry_fault(c, 0) for c in coords)

    def test_attempt_gating_heals(self):
        """attempts=N fires on attempts 0..N-1 and then runs clean —
        the property that makes retrying chaos campaigns converge."""
        plan = FaultPlan.parse("crash:1.0:2", seed=1)
        coords = ("cad", "Chrome 130.0", 150, 0)
        assert plan.entry_fault(coords, 0) is not None
        assert plan.entry_fault(coords, 1) is not None
        assert plan.entry_fault(coords, 2) is None

    def test_store_kinds_never_entry_fault(self):
        plan = FaultPlan.parse("corrupt:1.0,io-error:1.0", seed=1)
        assert plan.entry_fault(("cad", "x", 0, 0), 0) is None


class TestStoreFaults:
    @pytest.mark.parametrize("text", ["corrupt:0.5,partial:0.3",
                                      "partial:0.3,corrupt:0.5"])
    def test_store_kinds_target_independently(self, text):
        """Each kind draws its own targets, so both fire at their
        independent rates whatever the listing order: ``partial``
        tears 30% of the keys ``corrupt`` leaves alone listed second,
        and 30% of all keys listed first."""
        plan = FaultPlan.parse(text, seed=5)
        keys = [f"{index:064x}" for index in range(3000)]
        kinds = [plan.store_fault("write", key) for key in keys]
        partial = sum(1 for spec in kinds if spec is not None
                      and spec.kind is FaultKind.PARTIAL_WRITE)
        expected = 0.15 if text.startswith("corrupt") else 0.30
        assert abs(partial / len(keys) - expected) <= 0.03

    def test_occurrence_counter_bounds_faults(self):
        plan = FaultPlan.parse("corrupt:1.0:2", seed=1)
        key = "ab" * 32
        assert plan.store_fault("write", key) is not None
        assert plan.store_fault("write", key) is not None
        assert plan.store_fault("write", key) is None  # healed

    def test_write_kinds_never_fire_on_read(self):
        plan = FaultPlan.parse("corrupt:1.0,partial:1.0", seed=1)
        assert plan.store_fault("read", "ab" * 32) is None

    def test_io_error_fires_both_ways(self):
        read_plan = FaultPlan.parse("io-error:1.0", seed=1)
        write_plan = FaultPlan.parse("io-error:1.0", seed=1)
        assert read_plan.store_fault("read", "ab" * 32) is not None
        assert write_plan.store_fault("write", "ab" * 32) is not None

    def test_worker_copies_do_not_share_occurrences(self):
        """Pickling (the pool-worker path) keeps plan identity but the
        parent-side occurrence counter stays parent-side semantics:
        equality ignores it."""
        plan = FaultPlan.parse("corrupt:1.0", seed=1)
        plan.store_fault("write", "ab" * 32)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan


class TestInjection:
    def test_serial_crash_is_an_exception(self):
        """In-process 'crashes' must raise, not kill the campaign."""
        (spec,) = FaultPlan.parse("crash:1.0").specs
        with pytest.raises(InjectedFault, match="serial simulation"):
            inject_entry_fault(spec)

    def test_hang_sleeps_then_raises(self):
        (spec,) = FaultPlan.parse("hang:1.0:1:0.0").specs
        with pytest.raises(InjectedFault, match="injected entry hang"):
            inject_entry_fault(spec)
