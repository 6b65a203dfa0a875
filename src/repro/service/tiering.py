"""Tiered store: bounded in-memory LRU over the on-disk campaign store.

The disk tier (the packed store) is the source of truth; the LRU in
front of it holds each payload as an immutable row: the JSON array the
store persists, with every list a tuple and every string interned
(:func:`_freeze`).  A memory hit is ``decode(row)`` and a disk hit is
``decode(json row)``: every decoder indexes positionally and takes a
tuple or a list alike, so both tiers decode the same values and
byte-identity holds by construction.  Rows are immutable and decoders
build fresh objects, so a caller that mutates a hit cannot poison the
next one.

Why rows rather than JSON text or parsed dicts: text makes every memory
hit pay a ``json.loads``, which was most of a warm submission's time.
Parsed dicts are mutable, so each hit would need a copy, and they stay
tracked by the cyclic garbage collector, whose passes over thousands of
entries cost more than the parse saved.  The collector stops tracking
a tuple that holds only untracked values (one nesting level per pass
that visits it), so a full LRU of rows soon adds almost nothing to a
collection.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, List

from ..metrics import Metrics
from ..testbed.store import Decoded

_MISSING = object()


#: The scalar types a frozen row holds as they are.
_SCALARS = frozenset({int, float, bool, type(None)})


def _freeze(value: Any) -> Any:
    """The LRU's entry form of a row: every list a tuple, every string
    interned (a full LRU repeats a few names thousands of times).  A
    dict raises ``TypeError``: a store payload is a JSON array."""
    if type(value) is str:
        return sys.intern(value)
    if isinstance(value, (list, tuple)):
        return tuple([item if type(item) in _SCALARS else _freeze(item)
                      for item in value])
    if isinstance(value, dict):
        raise TypeError("a store payload is a JSON array, not an object")
    return value


class LRUCache:
    """A bounded key → payload mapping with LRU eviction.

    Not locked: the owning :class:`TieredStore` serializes access.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self._data: "OrderedDict[str, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def get(self, key: str) -> Any:
        """The cached payload (refreshing recency), or the module's
        ``_MISSING`` sentinel."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return _MISSING
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        if self.capacity <= 0:
            return
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        while len(data) > self.capacity:
            data.popitem(last=False)
            self.evictions += 1

    def discard(self, key: str) -> None:
        self._data.pop(key, None)

    def clear(self) -> None:
        self._data.clear()


class TieredStore:
    """Memory tier + disk tier behind the one store interface.

    Thread-safe (unlike a bare :class:`CampaignStore` handle): one
    instance is shared by every concurrent submission of a service, so
    every operation holds the tier lock — which also serializes access
    to the backing handle's scan state.

    :attr:`metrics` counts hits, misses and stores at tier granularity
    (a memory hit and a disk hit are both hits); the backing store's
    own metrics keep counting disk traffic only.
    """

    def __init__(self, backing: Any, capacity: int = 8192) -> None:
        self.backing = backing
        self.lru = LRUCache(capacity)
        self.metrics = Metrics()
        self._lock = threading.RLock()

    # -- reads -----------------------------------------------------------------

    def get_many(self, keys: "Iterable[str]",
                 decode: "Callable[[Any], Decoded]"
                 ) -> "Dict[str, Decoded]":
        with self._lock:
            out: "Dict[str, Decoded]" = {}
            missing: "List[str]" = []
            lru = self.lru
            for key in keys:
                row = lru.get(key)
                if row is _MISSING:
                    missing.append(key)
                    continue
                try:
                    out[key] = decode(row)
                except Exception:
                    # A row put under this key that does not decode:
                    # the disk read below quarantines it.
                    lru.discard(key)
                    missing.append(key)
            self.metrics.hits += len(out)
            if missing:
                # The backing store decodes each disk hit itself, so a
                # payload that fails to decode is quarantined and
                # counted there, as on a bare store's read.
                found = self.backing.get_many(
                    missing, lambda payload: (payload, decode(payload)))
                for key in missing:
                    hit = found.get(key)
                    if hit is None:
                        self.metrics.misses += 1
                        continue
                    payload, out[key] = hit
                    lru.put(key, _freeze(payload))
                    self.metrics.hits += 1
            return out

    # -- writes ----------------------------------------------------------------

    def put(self, key: str, payload: Any) -> None:
        with self._lock:
            row = _freeze(payload)
            self.backing.put(key, payload)
            self.lru.put(key, row)
            self.metrics.stores += 1

    # -- maintenance -----------------------------------------------------------

    def gc(self, live_keys: "Iterable[str]") -> Any:
        with self._lock:
            stats = self.backing.gc(live_keys)
            self.lru.clear()
            return stats

    # -- plumbing ----------------------------------------------------------------

    def __getattr__(self, name: str) -> Any:
        return getattr(self.backing, name)
