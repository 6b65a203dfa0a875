"""One bounded memo for the simulator's process-global caches.

Every run builds a fresh testbed, so a sweep rebuilds the same zones
and replays the same DNS traffic run after run, and a few pure
functions see the same arguments thousands of times.  Each memoizes
through a :class:`BoundedMemo`: a plain ``dict``, so a hit is one
C-level ``dict.get``, whose :meth:`~BoundedMemo.put` clears the whole
table once it is full.  A memoized value is a pure function of its
key, so a clean restart costs only recomputation and needs no
eviction bookkeeping.
"""

from __future__ import annotations

from typing import Any

#: Entries a memo holds before :meth:`BoundedMemo.put` clears it.
MEMO_CAP = 65536


class BoundedMemo(dict):
    """A ``dict`` memo cleared on overflow: read it with ``get``, fill
    it with :meth:`put`."""

    __slots__ = ()

    def put(self, key: Any, value: Any) -> Any:
        """Store ``value`` under ``key`` and return it, clearing the
        table first when it already holds :data:`MEMO_CAP` entries."""
        if len(self) >= MEMO_CAP:
            self.clear()
        self[key] = value
        return value
