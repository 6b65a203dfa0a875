"""Single-flight key claims: a stampede executes each run exactly once.

When N concurrent submissions plan overlapping key sets, the naive
outcome is N executions of every shared miss — the cache-avalanche
shape.  :class:`SingleFlight` is the in-process claim registry that
prevents it: before a submission may treat a key as a miss (and execute
it), it must *own* the key's claim.  Claims are granted atomically for
a whole miss-set or not at all, which is what makes the protocol
deadlock-free: a submission only ever blocks while holding **zero**
claims from the blocked call, so two submissions can never wait on each
other's partial grabs.

The waiting side re-probes the store when claims resolve, so a waiter
observes the winner's stored record (a hit, byte-identical by the
store's own invariant) instead of executing a duplicate; so does a
submission granted a claim after another one stored since its probe.
A claim whose owner finishes without storing (a harness failure —
those records are never cached) is released at submission end and the
longest waiter simply inherits the miss and executes it itself.
"""

from __future__ import annotations

import threading
from typing import (Any, Callable, Dict, Iterable, List, Optional, Set,
                    Tuple)

from ..metrics import Metrics
from ..testbed.store import Decoded


class SingleFlight:
    """The shared claim registry (one per service).

    Thread-safe; tokens are opaque per-submission identities (any
    hashable object).  The registry never touches the store — it only
    arbitrates who is allowed to execute a missing key.  It counts
    ``claims`` and ``waits`` into ``metrics`` (the service's lifetime
    counters).
    """

    def __init__(self, metrics: Metrics) -> None:
        self._cond = threading.Condition()
        self._owners: "Dict[str, Any]" = {}
        self.metrics = metrics
        #: :meth:`release` calls so far (each follows a store).  A
        #: submission whose probe predates one re-probes the keys it
        #: then claims: a key stored between its probe and its claim is
        #: a hit, not a second execution.
        self.stored = 0

    def in_flight(self) -> int:
        """Keys currently claimed by some submission."""
        with self._cond:
            return len(self._owners)

    def claim_all(self, token: Any,
                  keys: "List[str]") -> "Tuple[bool, List[str]]":
        """Atomically claim every key in ``keys`` for ``token``.

        All-or-nothing: returns ``(True, [])`` and records ownership of
        every key when none is owned by a *different* token (keys the
        token already owns pass through), else changes nothing and
        returns ``(False, foreign)`` with the keys someone else holds.
        """
        with self._cond:
            foreign = [key for key in keys
                       if self._owners.get(key, token) is not token]
            if foreign:
                return False, foreign
            for key in keys:
                if key not in self._owners:
                    self._owners[key] = token
                    self.metrics.claims += 1
            return True, []

    def wait_any(self, token: Any, keys: "Iterable[str]",
                 timeout: float = 1.0) -> None:
        """Block until at least one of ``keys`` is no longer claimed by
        a foreign token (released by a store or an abandon).  The
        timeout is a lost-notification backstop, not a deadline — the
        caller loops through the claim protocol regardless."""
        with self._cond:
            def some_free() -> bool:
                return any(self._owners.get(key, token) is token
                           for key in keys)
            if some_free():
                return
            self.metrics.waits += 1
            while not some_free():
                self._cond.wait(timeout=timeout)

    def release(self, token: Any, keys: "Iterable[str]") -> None:
        """Release ``token``'s claims on ``keys`` (no-op for keys it
        does not own) and wake every waiter."""
        with self._cond:
            self.stored += 1
            freed = False
            for key in keys:
                if self._owners.get(key) is token:
                    del self._owners[key]
                    freed = True
            if freed:
                self._cond.notify_all()

    def release_all(self, token: Any) -> int:
        """Release every claim ``token`` still holds (submission
        teardown: covers keys that executed but were never stored)."""
        with self._cond:
            stale = [key for key, owner in self._owners.items()
                     if owner is token]
            for key in stale:
                del self._owners[key]
            if stale:
                self._cond.notify_all()
            return len(stale)


class SingleFlightStore:
    """A store wrapper enforcing the claim protocol for one submission.

    Sits between a submission's :class:`~repro.experiments.Session` and
    the shared (tiered) store.  Reads resolve normally; a key about to
    be reported as a miss is first claimed — or, when another
    submission holds it, waited on and re-probed, so the executor
    above sees a *hit* for work someone else is doing right now.
    Writes pass through and release the key's claim, waking waiters.

    Everything not overridden delegates to the inner store, so the
    wrapper is drop-in wherever a :class:`CampaignStore` is expected.
    It lives in the parent only: the executor resolves every key there
    and ships nothing store-like to pool workers.

    Its own :attr:`metrics` (the submission's) count ``stores`` — keys
    this submission stored, which are the runs it executed when the
    campaign layer above only stores fresh executions — and ``waited``,
    the keys that resolved only after waiting on a foreign claim or
    that another submission stored after this one's probe.
    With ``record=True``, :attr:`asked` is every key the submission
    looked up, so the service can tell whether execution stayed inside
    the admitted plan; otherwise it is None and lookups record nothing.
    """

    def __init__(self, inner: Any, flight: SingleFlight,
                 token: Optional[Any] = None, record: bool = False) -> None:
        self.inner = inner
        self.flight = flight
        self.token = token if token is not None else object()
        self.metrics = Metrics()
        self.asked: "Optional[Set[str]]" = set() if record else None

    # -- reads (claim protocol) ------------------------------------------------

    def get_many(self, keys: "Iterable[str]",
                 decode: "Callable[[Any], Decoded]"
                 ) -> "Dict[str, Decoded]":
        key_list = list(keys)
        if self.asked is not None:
            self.asked.update(key_list)
        seen = self.flight.stored
        out = self.inner.get_many(key_list, decode)
        pending = [key for key in key_list if key not in out]
        while pending:
            granted, foreign = self.flight.claim_all(self.token, pending)
            if granted:
                if self.flight.stored != seen:
                    # Another submission stored since the probe: a key
                    # it stored is a hit now, not a second execution.
                    late = self.inner.get_many(pending, decode)
                    if late:
                        self.flight.release(self.token, list(late))
                        self.metrics.waited += len(late)
                        out.update(late)
                break
            self.flight.wait_any(self.token, foreign)
            resolved = self.inner.get_many(foreign, decode)
            self.metrics.waited += len(resolved)
            out.update(resolved)
            pending = [key for key in pending if key not in out]
        return out

    # -- writes (release claims) -----------------------------------------------

    def put(self, key: str, payload: Any) -> None:
        self.inner.put(key, payload)
        self.metrics.stores += 1
        self.flight.release(self.token, [key])

    # -- teardown ----------------------------------------------------------------

    def release(self) -> int:
        """Drop every claim this submission still holds.  Call from a
        ``finally``: it is what guarantees liveness when a claimed key
        never got stored (harness failure, crash, exception)."""
        return self.flight.release_all(self.token)

    # -- plumbing ----------------------------------------------------------------

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)
