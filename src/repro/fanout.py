"""The one campaign dispatcher: chunked, retrying, watchdogged.

Every campaign entry point (figure 2 and every other runner-driven
experiment, Table 2 client evaluation, Table 3 resolver subjects, web
campaign entries) has the same shape: a sequence of picklable items,
a top-level worker function, and the guarantee that results are a
pure function of each item — so parallel execution returns exactly
the serial result, in item order.  :func:`shared_map` is the only
dispatcher for that shape.  With one worker (or fewer than two items)
it runs in-process; otherwise it fans contiguous chunks out over one
**process-global worker pool** (:func:`shared_pool`), so pool start-up
is paid once per process, not once per campaign.

The same loop carries the fault-tolerant runtime
(:mod:`repro.testbed.resilience`): per-item retries with seeded
backoff, a watchdog on every pool task, and recovery from a crashed
worker (``BrokenProcessPool``) or a wedged pool
(:func:`abandon_shared_pool`).  Without a retry budget, fault plan or
watchdog, an item's exception simply propagates.

Fault attribution.  A pool task is a chunk, so a fault of the whole
task — the pool breaking under it, or a multi-item chunk overrunning
its watchdog budget — cannot be pinned on one item.  Charging everyone
would let one persistent crasher exhaust its neighbours' retry
budgets; charging no one would let it crash-loop forever.  So such a
fault charges nobody: its unfinished items advance their fault
attempt and re-dispatch one item per task in a *settle* phase (no new
work dispatches until they clear).  A recoverable crasher heals on
its next attempt uncharged, while a fault of a single-item task is
charged to that item — its exception, its watchdog, or a pool that
breaks *again* while it settles — which bounds persistent crashers by
the retry budget without ever spuriously failing an innocent.
"""

from __future__ import annotations

import atexit
import bisect
import time

from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterator, List,
                    Optional, Sequence, Tuple, TypeVar)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .testbed.resilience import FailureEntry, Resilience

Item = TypeVar("Item")
Result = TypeVar("Result")

#: Chunks per worker: small enough to load-balance uneven run costs
#: (address-selection runs take far longer than CAD runs), large
#: enough to amortize pickling the shared context in ``fn`` per task.
_CHUNKS_PER_WORKER = 4

_shared_pool = None
_shared_pool_workers = 0
#: The atexit teardown is registered at most once per process:
#: ``atexit.register`` does not deduplicate, so a shutdown + recreate
#: cycle (tests, pool-respawn recovery) must not stack a second hook.
_atexit_registered = False


def shared_pool(workers: int):
    """The process-global ``ProcessPoolExecutor``, sized for at least
    ``workers``.

    A campaign asking for more workers than the current pool replaces
    it with a bigger one; a campaign asking for fewer reuses the
    existing pool and simply leaves the extra workers idle — idle
    workers cost nothing, while pool start-up does not.
    """
    global _shared_pool, _shared_pool_workers, _atexit_registered
    if workers < 1:
        raise ValueError(f"workers must be >= 1: {workers}")
    if _shared_pool is None or _shared_pool_workers < workers:
        from concurrent.futures import ProcessPoolExecutor

        if _shared_pool is not None:
            _shared_pool.shutdown(wait=True)
        if not _atexit_registered:
            # Tear the pool down cleanly at exit instead of by garbage
            # collection during interpreter shutdown — once, however
            # many shutdown/recreate cycles the process goes through.
            atexit.register(shutdown_shared_pool)
            _atexit_registered = True
        _shared_pool = ProcessPoolExecutor(max_workers=workers)
        _shared_pool_workers = workers
    return _shared_pool


def shutdown_shared_pool() -> None:
    """Tear down the shared pool (tests; or to reclaim the workers)."""
    global _shared_pool, _shared_pool_workers
    if _shared_pool is not None:
        _shared_pool.shutdown(wait=True)
        _shared_pool = None
        _shared_pool_workers = 0


def abandon_shared_pool() -> None:
    """Discard the shared pool *without waiting for its workers*.

    The recovery path for a wedged pool: a hung worker would make
    :func:`shutdown_shared_pool`'s ``wait=True`` block forever, so the
    dispatcher cancels the queue, terminates the worker processes
    best-effort, and leaves the executor for the collector.  The next
    :func:`shared_pool` call starts fresh.
    """
    global _shared_pool, _shared_pool_workers
    pool = _shared_pool
    _shared_pool = None
    _shared_pool_workers = 0
    if pool is None:
        return
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except Exception:  # racing its own exit is fine
            pass


def _run_chunk(fn: "Callable[[Any, int], Any]",
               chunk: "Sequence[Tuple[Any, int]]"
               ) -> "List[Tuple[bool, Any]]":
    """Pool task: run each ``(item, attempt)`` of one chunk, returning
    ``(True, result)`` or ``(False, exception)`` per item, so an
    item's exception is charged to that item alone and its
    chunk-mates' results are kept."""
    outcomes = []
    for item, attempt in chunk:
        try:
            outcomes.append((True, fn(item, attempt)))
        except Exception as exc:
            outcomes.append((False, exc))
    return outcomes


def shared_map(fn: "Callable[[Item, int], Result]",
               items: "Sequence[Item]", workers: Optional[int],
               resilience: "Optional[Resilience]" = None,
               describe: "Optional[Callable[[Item], str]]" = None,
               fallback: "Optional[Callable[[Item, FailureEntry], Result]]"
               = None) -> "Iterator[Result]":
    """``fn(item, attempt)`` for every item, yielding results in item
    order — in-process, or over the shared pool with ``workers >= 2``.

    ``attempt`` is the item's fault-targeting attempt (0 on its first
    dispatch), so seeded fault plans fire deterministically; workers
    without a fault plan ignore it.  Shared context (a campaign's
    runner) rides in ``fn`` as a ``functools.partial``: it is pickled
    once per chunk, not once per item.  ``describe`` labels an item
    for backoff seeding and the failure manifest.

    ``resilience`` carries the retry policy, the fault plan and the
    manifest that counts what happened.  With no retry budget, fault
    plan or watchdog, an item's exception propagates; otherwise an
    item that exhausts its budget resolves to
    ``fallback(item, failure)`` and the campaign completes.
    """
    from .testbed.resilience import Resilience

    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1: {workers}")
    res = resilience if resilience is not None else Resilience()
    if res.degrades:
        res.manifest.dispatched += len(items)
    if workers is None or workers == 1 or len(items) < 2:
        yield from _in_process(fn, items, res, describe, fallback)
    else:
        yield from _over_pool(fn, items, workers, res, describe, fallback)


def _give_up(res: "Resilience", item: Any, attempts: int,
             exc: Exception, started: float,
             describe: "Callable[[Any], str]",
             fallback: "Callable[[Any, FailureEntry], Any]") -> Any:
    """An item out of retries: degrade to ``fallback``, or re-raise
    when the policy does not degrade."""
    from .testbed.resilience import FailureEntry

    if not res.degrades:
        raise exc
    failure = FailureEntry(
        label=describe(item), attempts=attempts,
        error=str(exc) or type(exc).__name__,
        elapsed_s=time.monotonic() - started)
    res.manifest.failures.append(failure)
    return fallback(item, failure)


def _in_process(fn, items, res, describe, fallback) -> Iterator[Any]:
    """One retry loop per item, in this process.  ``KeyboardInterrupt``
    and ``SystemExit`` always propagate — resilience is for the
    harness's faults, not for overriding the operator."""
    policy = res.policy
    for item in items:
        started = time.monotonic()
        attempt = 0
        while True:
            try:
                value = fn(item, attempt)
                break
            except Exception as exc:
                attempt += 1
                if attempt > policy.retries:
                    value = _give_up(res, item, attempt, exc, started,
                                     describe, fallback)
                    break
                res.manifest.retries += 1
                time.sleep(policy.backoff_for(describe(item), attempt - 1))
        yield value


def _over_pool(fn, items, workers, res, describe, fallback
               ) -> Iterator[Any]:
    """Chunks over the shared pool, at most ``workers`` in flight, so a
    chunk's watchdog (``entry_timeout`` per item) measures execution,
    not queueing."""
    from concurrent.futures import FIRST_COMPLETED, wait
    from concurrent.futures.process import BrokenProcessPool

    policy = res.policy
    manifest = res.manifest
    n = len(items)
    size = -(-n // (workers * _CHUNKS_PER_WORKER))  # ceil division
    #: Payloads awaiting dispatch, sorted by first index: contiguous
    #: chunks at first, single items once retried or split.
    queue: "List[Tuple[int, ...]]" = [
        tuple(range(start, min(start + size, n)))
        for start in range(0, n, size)]
    results: "Dict[int, Any]" = {}
    charged = [0] * n
    fault_attempt = [0] * n
    ready_at = [0.0] * n
    first_dispatch: "List[Optional[float]]" = [None] * n
    inflight: "Dict[Any, Tuple[Tuple[int, ...], float]]" = {}
    #: Items re-dispatching alone after an unattributable fault; while
    #: set, nothing else dispatches (None = normal mode).
    settling: "Optional[set]" = None
    next_yield = 0

    def charge(index: int, exc: Exception) -> None:
        """One failed attempt attributed to ``index`` itself."""
        charged[index] += 1
        fault_attempt[index] += 1
        if settling is not None:
            settling.discard(index)
        if charged[index] > policy.retries:
            results[index] = _give_up(
                res, items[index], charged[index], exc,
                first_dispatch[index] or time.monotonic(),
                describe, fallback)
            return
        manifest.retries += 1
        ready_at[index] = time.monotonic() + policy.backoff_for(
            describe(items[index]), charged[index] - 1)
        bisect.insort(queue, (index,))

    def split(payload: "Tuple[int, ...]") -> None:
        """An unattributable fault: nobody is charged; the payload's
        items advance their fault attempt and settle one per task."""
        nonlocal settling
        if settling is None:
            settling = set()
        for index in payload:
            fault_attempt[index] += 1
            settling.add(index)
            bisect.insort(queue, (index,))

    def on_pool_break(payloads: "List[Tuple[int, ...]]") -> None:
        """Every in-flight task died with the pool.  A settling item
        alone in its task is charged (a break while items settle can
        only have come from one of them) and settles again; every
        other task is split."""
        manifest.pool_breaks += 1
        manifest.respawns += 1
        blamed = set(settling or ())
        inflight.clear()
        shutdown_shared_pool()
        for payload in payloads:
            if len(payload) == 1 and payload[0] in blamed:
                charge(payload[0], BrokenProcessPool(
                    "worker crashed (pool broke repeatedly while "
                    "settling)"))
                if payload[0] not in results:
                    settling.add(payload[0])
            else:
                split(payload)

    def dispatch() -> None:
        """Fill the window from the queue, in item order."""
        now = time.monotonic()
        for payload in list(queue):
            if len(inflight) >= workers:
                return
            if ready_at[payload[0]] > now or (
                    settling is not None and payload[0] not in settling):
                continue
            queue.remove(payload)
            for index in payload:
                if first_dispatch[index] is None:
                    first_dispatch[index] = now
            chunk = [(items[index], fault_attempt[index])
                     for index in payload]
            try:
                future = shared_pool(workers).submit(_run_chunk, fn, chunk)
            except BrokenProcessPool:
                on_pool_break([payload] + [p for p, _ in inflight.values()])
                return
            inflight[future] = (payload, time.monotonic())

    def collect(done: "List[Any]") -> None:
        """Settle finished tasks: per-item outcomes, or a task fault."""
        broke = False
        for future in done:
            payload, _ = inflight[future]
            try:
                outcomes = future.result()
            except BrokenProcessPool:
                broke = True  # handled once, for every in-flight task
                continue
            except Exception as exc:
                # The task itself failed (say, its result would not
                # pickle): pin it on a single item, split a chunk.
                del inflight[future]
                if len(payload) == 1:
                    charge(payload[0], exc)
                else:
                    split(payload)
                continue
            del inflight[future]
            for index, (ok, value) in zip(payload, outcomes):
                if ok:
                    results[index] = value
                    if settling is not None:
                        settling.discard(index)
                else:
                    charge(index, value)
        if broke:
            on_pool_break([payload for payload, _ in inflight.values()])

    def expire() -> None:
        """Watchdog: charge overdue single items, split overdue chunks,
        abandon the wedged pool, re-queue the healthy tasks as-is."""
        now = time.monotonic()
        overdue = [payload for payload, started in inflight.values()
                   if now - started >= policy.entry_timeout * len(payload)]
        if not overdue:
            return  # spurious wake (e.g. clamped timeout)
        manifest.respawns += 1
        survivors = [payload for payload, _ in inflight.values()
                     if payload not in overdue]
        inflight.clear()
        abandon_shared_pool()
        for payload in overdue:
            manifest.hang_timeouts += 1
            if len(payload) == 1:
                charge(payload[0], TimeoutError(
                    f"entry exceeded the {policy.entry_timeout:.3f}s "
                    "watchdog"))
            else:
                split(payload)
        for payload in survivors:
            bisect.insort(queue, payload)

    # Finished tasks are collected and the window refilled before each
    # yield, so workers stay busy while the consumer handles results.
    while next_yield < n:
        if settling is not None and not settling:
            settling = None  # survivors cleared: back to normal mode
        if queue and len(inflight) < workers:
            dispatch()
        done = [future for future in inflight if future.done()]
        if done:
            collect(done)
        elif next_yield in results:
            value = results.pop(next_yield)
            next_yield += 1
            yield value
        elif not inflight:
            # Everything left is backing off: sleep until the earliest
            # eligible payload is ready instead of spinning.
            gate = [ready_at[p[0]] for p in queue
                    if settling is None or p[0] in settling]
            time.sleep(max(0.0, min(gate, default=0.0) - time.monotonic()))
        else:
            timeout = None
            if policy.entry_timeout is not None:
                timeout = max(0.0, min(
                    started + policy.entry_timeout * len(payload)
                    for payload, started in inflight.values())
                    - time.monotonic())
            done, _ = wait(list(inflight), timeout=timeout,
                           return_when=FIRST_COMPLETED)
            if done:
                collect(list(done))
            else:
                expire()
