"""The dispatcher contract of :func:`repro.fanout.shared_map`.

Every campaign runs through one dispatcher, so its contract is checked
in both of its modes — in-process (``workers=1``) and over the shared
pool (``workers=2``): item order, contiguous chunks, shared context
pickled once per chunk, per-item fault attribution, and the
raise-or-degrade error policy seen from ``TestRunner.stream``.
"""

import concurrent.futures
import dataclasses
import functools
import os
import signal
import threading
import time

import pytest

from repro import fanout
from repro.clients import get_profile
from repro.experiments import Session
from repro.faults import FaultPlan
from repro.fanout import _CHUNKS_PER_WORKER, shared_map
from repro.testbed import (CampaignJournal, CampaignStore, Resilience,
                           RetryPolicy, SweepSpec, TestRunner, cad_case,
                           is_harness_failure)

FAST = dict(backoff_base=0.001, backoff_cap=0.01)
MODES = pytest.mark.parametrize("workers", [1, 2])


class Context:
    """Shared context riding in ``fn``: every unpickled copy gets a
    fresh token, so the items that saw one copy form one chunk."""

    unpickled = 0

    def __init__(self, fail=(), hang=(), crash=()):
        self.fail = frozenset(fail)    # raise on every attempt
        self.hang = frozenset(hang)    # sleep through attempt 0
        self.crash = frozenset(crash)  # kill the worker on attempt 0
        self.token = None

    def __setstate__(self, state):
        self.__dict__.update(state)
        Context.unpickled += 1
        self.token = (os.getpid(), Context.unpickled)


def work(context, item, attempt):
    if item in context.fail:
        raise ValueError(f"item {item} failed")
    if attempt == 0 and item in context.hang:
        time.sleep(2.0)
    if attempt == 0 and item in context.crash:
        os._exit(70)
    return item * 10, context.token


def run(context, items, workers, resilience=None):
    """Map ``work`` over ``items``; returns the results and the
    session, whose metrics count what the dispatcher did."""
    session = Session(workers=workers, resilience=resilience)
    return list(shared_map(functools.partial(work, context), items,
                           session, describe=str,
                           fallback=lambda item, failure: (None, None))
                ), session


def chunk_count(n, workers):
    size = -(-n // (workers * _CHUNKS_PER_WORKER))
    return len(range(0, n, size))


@MODES
def test_results_come_back_in_item_order(workers):
    items = list(range(23))
    results, _ = run(Context(), items, workers)
    assert [value for value, _ in results] == [item * 10 for item in items]


@MODES
def test_chunks_are_contiguous_and_unpickle_context_once(workers):
    """Items sharing one unpickled context form one chunk: each chunk
    is a contiguous run of items, in order, and there are exactly as
    many unpickles as chunks (none in-process)."""
    items = list(range(20))
    tokens = [token for _, token in run(Context(), items, workers)[0]]
    chunks = []
    for item, token in zip(items, tokens):
        if chunks and chunks[-1][0] == token:
            chunks[-1][1].append(item)
        else:
            chunks.append((token, [item]))
    assert len({token for token, _ in chunks}) == len(chunks)
    assert [item for _, chunk in chunks for item in chunk] == items
    if workers == 1:
        assert tokens == [None] * len(items)
    else:
        assert len(chunks) == chunk_count(len(items), workers)


@MODES
def test_raising_item_is_charged_alone(workers):
    res = Resilience(policy=RetryPolicy(retries=1, **FAST))
    results, session = run(Context(fail={7}), list(range(40)), workers,
                           res)
    assert results[7] == (None, None)
    assert [value for value, _ in results[:7] + results[8:]] == \
        [item * 10 for item in range(40) if item != 7]
    if workers > 1:  # every chunk-mate resolved in its first chunk
        assert len({token for _, token in results if token}) == \
            chunk_count(40, workers)
    assert [(f.label, f.attempts) for f in res.failures] == [("7", 2)]
    assert session.metrics.failures == 1
    assert session.metrics.retries == 1
    assert session.metrics.pool_breaks == 0


@MODES
def test_exception_propagates_without_retry_policy(workers):
    with pytest.raises(ValueError, match="item 3 failed"):
        run(Context(fail={3}), list(range(8)), workers)


def test_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        run(Context(), [1, 2], 0)


def test_concurrent_first_calls_share_one_pool(monkeypatch):
    """Threads racing to the first ``shared_pool`` call (service
    threads dispatching cold submissions) get one pool between them;
    none is started only to be orphaned."""
    created = []

    class SlowPool:
        def __init__(self, max_workers, initializer=None):
            time.sleep(0.05)  # widen the check-then-create window
            created.append(self)

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    fanout.shutdown_shared_pool()
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        SlowPool)
    barrier = threading.Barrier(8)
    pools = []

    def first_call():
        barrier.wait(timeout=10)
        pools.append(fanout.shared_pool(2))

    threads = [threading.Thread(target=first_call) for _ in range(8)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert len(created) == 1
        assert len(pools) == 8
        assert all(pool is created[0] for pool in pools)
    finally:
        fanout.shutdown_shared_pool()


def terminated_once(item, attempt):
    if attempt == 0 and item == 5:
        os.kill(os.getpid(), signal.SIGTERM)
        time.sleep(5.0)
    return item * 10


def test_workers_die_on_sigterm_whatever_the_parent_handles():
    """``repro serve`` turns SIGTERM into an interrupt; its pool
    workers must still die on one (the watchdog terminates them)."""

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    fanout.shutdown_shared_pool()
    previous = signal.signal(signal.SIGTERM, interrupt)
    try:
        session = Session(workers=2, resilience=Resilience(
            policy=RetryPolicy(retries=1, **FAST)))
        items = list(range(16))
        assert list(shared_map(terminated_once, items, session,
                               describe=str)) == [i * 10 for i in items]
        assert session.metrics.pool_breaks >= 1
    finally:
        signal.signal(signal.SIGTERM, previous)
        fanout.shutdown_shared_pool()


def test_pool_break_in_a_chunk_charges_nobody():
    """A crash takes the whole chunk (and its pool) down: nobody is
    charged, the chunk's items settle one per task on their next fault
    attempt, and the campaign heals with no retry spent."""
    res = Resilience(policy=RetryPolicy(retries=1, **FAST))
    items = list(range(16))
    results, session = run(Context(crash={5}), items, 2, res)
    assert [value for value, _ in results] == [item * 10 for item in items]
    assert session.metrics.pool_breaks >= 1
    assert session.metrics.retries == 0
    assert not res.failures


def test_chunk_watchdog_splits_without_charging():
    """A multi-item chunk overrunning ``entry_timeout`` per item is a
    watchdog expiry charged to nobody: its items re-run alone."""
    res = Resilience(policy=RetryPolicy(retries=1, entry_timeout=0.5,
                                        **FAST))
    items = list(range(16))
    results, session = run(Context(hang={5}), items, 2, res)
    assert [value for value, _ in results] == [item * 10 for item in items]
    assert session.metrics.hang_timeouts >= 1
    assert session.metrics.retries == 0
    assert not res.failures


# -- the error policy, seen from the campaign runner ----------------------------


class FailingRunner(TestRunner):
    """``run_single`` raises for one sweep value."""

    def run_single(self, case, profile, value_ms, repetition=0,
                   run_seed=None):
        if value_ms == 80:
            raise RuntimeError("run_single blew up")
        return super().run_single(case, profile, value_ms, repetition,
                                  run_seed)


def runner(cls=TestRunner):
    return cls(clients=[get_profile("curl", "7.88.1")],
               cases=[dataclasses.replace(
                   cad_case(), sweep=SweepSpec.fixed(0, 80, 160, 240))],
               seed=5)


@MODES
@pytest.mark.parametrize("journal_only", [False, True])
def test_runner_exception_propagates(tmp_path, workers, journal_only):
    """No retry budget, fault plan or watchdog: a raising run fails
    the campaign — including under the journal-only bundle a plain
    cached invocation gets."""
    session = Session(workers=workers)
    if journal_only:
        session = Session(
            workers=workers, store=CampaignStore(tmp_path / "cache"),
            resilience=Resilience(
                journal=CampaignJournal(tmp_path / "j.log"),
                explicit=False))
    with pytest.raises(RuntimeError, match="run_single blew up"):
        list(runner(FailingRunner).stream(session))


@MODES
def test_runner_degrades_to_harness_records(workers):
    plan = FaultPlan.parse("crash:1.0:9", seed=5)  # never heals
    res = Resilience(policy=RetryPolicy(retries=1, **FAST),
                     fault_plan=plan)
    records = list(runner().stream(Session(workers=workers,
                                           resilience=res)))
    assert len(records) == 4
    assert all(is_harness_failure(record) for record in records)
    assert len(res.failures) == 4
