"""The one counters type: declared fields, pickling, merging.

Worker-side collection will ship ``Metrics`` across processes and fold
them into the parent's, so these properties are the contract.
"""

import pickle
from dataclasses import fields

import pytest

from repro.metrics import STATS_SECTIONS, Metrics

NAMES = [spec.name for spec in fields(Metrics)]


def distinct() -> Metrics:
    """Every counter set to a different value."""
    metrics = Metrics()
    for value, name in enumerate(NAMES, start=1):
        setattr(metrics, name, value)
    return metrics


def test_every_counter_starts_at_zero():
    assert all(getattr(Metrics(), name) == 0 for name in NAMES)


def test_pickle_round_trip_preserves_every_counter():
    original = distinct()
    copy = pickle.loads(pickle.dumps(original))
    assert copy == original
    assert [getattr(copy, name) for name in NAMES] == \
        list(range(1, len(NAMES) + 1))


def test_iadd_merges_field_by_field():
    total = distinct()
    alias = total
    total += distinct()
    assert total is alias
    assert [getattr(total, name) for name in NAMES] == \
        [2 * value for value in range(1, len(NAMES) + 1)]


def test_undeclared_counter_raises():
    metrics = Metrics()
    with pytest.raises(AttributeError):
        metrics.hitz += 1
    with pytest.raises(AttributeError):
        metrics.hitz = 1


def test_stats_sections_name_declared_counters():
    metrics = distinct()
    sections = metrics.stats_sections(tier={"lru_entries": 0})
    for name, counters in STATS_SECTIONS.items():
        assert set(counters) <= set(NAMES)
        assert list(sections[name])[:len(counters)] == list(counters)
    assert sections["tier"]["lru_entries"] == 0
