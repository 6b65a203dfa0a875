"""Tiered store: bounded in-memory LRU over the on-disk campaign store.

The disk tier (the packed store) is the source of truth; the LRU in
front of it holds *serialized payloads* — the canonical JSON text the
store persists — so a memory hit decodes through ``json.loads`` plus
the same ``decode_record`` path as a disk hit and byte-identity is
preserved by construction (a payload that JSON would normalize, e.g.
tuples to lists, normalizes identically from either tier).  Caching
text rather than live objects also makes hits immune to caller-side
mutation: every hit materializes a fresh object.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, List

from ..metrics import Metrics
from ..testbed.store import Decoded

_MISSING = object()


def _identity(payload: Any) -> Any:
    return payload


def _freeze(payload: Any) -> str:
    """The LRU's entry form: canonical JSON text."""
    return json.dumps(payload, sort_keys=True)


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
            for key in keys:
                frozen = self.lru.get(key)
                if frozen is _MISSING:
                    missing.append(key)
                    continue
                try:
                    out[key] = decode(json.loads(frozen))
                except Exception:
                    self.lru.discard(key)
                    missing.append(key)
                    continue
                self.metrics.hits += 1
            if missing:
                found = self.backing.get_many(missing, _identity)
                for key in missing:
                    payload = found.get(key, _MISSING)
                    if payload is _MISSING:
                        self.metrics.misses += 1
                        continue
                    try:
                        out[key] = decode(payload)
                        frozen = _freeze(payload)
                    except Exception:
                        self.metrics.misses += 1
                        continue
                    self.lru.put(key, frozen)
                    self.metrics.hits += 1
            return out

    # -- writes ----------------------------------------------------------------

    def put(self, key: str, payload: Any) -> None:
        with self._lock:
            self.backing.put(key, payload)
            try:
                self.lru.put(key, _freeze(payload))
            except (TypeError, ValueError):
                pass  # unserializable payloads stay disk-only
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
