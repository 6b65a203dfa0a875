"""Tiered store: bounded in-memory LRU over the on-disk campaign store.

The disk tier (the packed store) is the source of truth; the LRU in
front of it holds *serialized payloads* — the canonical JSON text the
store persists — so a memory hit decodes through ``json.loads`` plus
the same ``decode_record`` path as a disk hit and byte-identity is
preserved by construction (a payload that JSON would normalize, e.g.
tuples to lists, normalizes identically from either tier).  Caching
text rather than live objects also makes hits immune to caller-side
mutation: every hit materializes a fresh object.

The tier also watches where disk reads land.  A skewed campaign mix
concentrates traffic on a few shards (hot partitions); when a shard's
backing-read count exceeds a multiple of the uniform share, the
rebalancer preloads it into the LRU and compacts its pack's dead
bytes in the background.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..testbed.store import (CacheStats, Decoded, decode_record,
                             encode_record)

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


class ShardHeat:
    """Backing-read traffic per shard, for hot-partition detection.

    Content-addressed keys spread uniformly over 256 shards, so the
    expected share of any shard is ``total / 256``; a shard is *hot*
    when its reads exceed ``skew`` times that share (and an absolute
    floor, so cold services never rebalance on noise).  Counts are
    halved after every rebalance pass, keeping the signal recent.
    """

    SHARD_SPACE = 256

    def __init__(self) -> None:
        self.counts: "Dict[str, int]" = {}

    def note(self, shard: str, reads: int = 1) -> None:
        if reads > 0:
            self.counts[shard] = self.counts.get(shard, 0) + reads

    def total(self) -> int:
        return sum(self.counts.values())

    def hot_shards(self, min_reads: int = 64,
                   skew: float = 8.0) -> "List[str]":
        total = self.total()
        uniform_share = total / self.SHARD_SPACE
        return sorted(shard for shard, reads in self.counts.items()
                      if reads >= min_reads
                      and reads >= skew * uniform_share)

    def decay(self) -> None:
        self.counts = {shard: reads // 2
                       for shard, reads in self.counts.items()
                       if reads // 2 > 0}


@dataclass
class RebalanceEvent:
    """One hot shard handled by a rebalance pass."""

    shard: str
    #: Entries preloaded into the memory tier.
    preloaded: int
    #: Dead bytes reclaimed by compacting the shard's pack.
    reclaimed_bytes: int

    def summary(self) -> str:
        return (f"shard={self.shard} preloaded={self.preloaded} "
                f"reclaimed={self.reclaimed_bytes}B")


class TieredStore:
    """Memory tier + disk tier behind the one store interface.

    Thread-safe (unlike a bare :class:`CampaignStore` handle): one
    instance is shared by every concurrent submission of a service, so
    every operation holds the tier lock — which also serializes access
    to the backing handle's scan state.

    ``stats`` counts at tier granularity (a memory hit and a disk hit
    are both hits); the backing store's own counters keep counting disk
    traffic only, which is what the hit-rate split in the service stats
    is derived from.
    """

    def __init__(self, backing: Any, capacity: int = 8192) -> None:
        self.backing = backing
        self.lru = LRUCache(capacity)
        self.stats = CacheStats()
        self.heat = ShardHeat()
        self._lock = threading.RLock()
        #: A rebalance preload fills at most this fraction of the LRU
        #: per shard, so one huge hot shard cannot flush the whole tier.
        self.preload_fraction = 0.25

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
                self.stats.hits += 1
            if missing:
                for key in missing:
                    self.heat.note(key[:2])
                found = self.backing.get_many(missing, _identity)
                for key in missing:
                    payload = found.get(key, _MISSING)
                    if payload is _MISSING:
                        self.stats.misses += 1
                        continue
                    try:
                        out[key] = decode(payload)
                        frozen = _freeze(payload)
                    except Exception:
                        self.stats.misses += 1
                        continue
                    self.lru.put(key, frozen)
                    self.stats.hits += 1
            return out

    def get(self, key: str,
            decode: "Callable[[Any], Decoded]") -> "Optional[Decoded]":
        result = self.get_many([key], decode)
        return result.get(key)

    def get_many_records(self, keys: "Iterable[str]") -> "Dict[str, Any]":
        return self.get_many(keys, decode_record)

    def get_record(self, key: str) -> "Optional[Any]":
        return self.get(key, decode_record)

    def has(self, key: str) -> bool:
        with self._lock:
            return key in self.lru or self.backing.has(key)

    # -- writes ----------------------------------------------------------------

    def put(self, key: str, payload: Any) -> None:
        with self._lock:
            self.backing.put(key, payload)
            try:
                self.lru.put(key, _freeze(payload))
            except (TypeError, ValueError):
                pass  # unserializable payloads stay disk-only
            self.stats.stores += 1

    def put_record(self, key: str, record: Any) -> None:
        self.put(key, encode_record(record))

    # -- maintenance -----------------------------------------------------------

    def gc(self, live_keys: "Iterable[str]") -> Any:
        with self._lock:
            stats = self.backing.gc(live_keys)
            self.lru.clear()
            return stats

    def rebalance(self, min_reads: int = 64,
                  skew: float = 8.0) -> "List[RebalanceEvent]":
        """Handle every currently hot shard: preload its payloads into
        the memory tier and compact its pack's dead bytes.  Returns one
        event per shard handled (empty when nothing is hot), then
        decays the heat counters."""
        with self._lock:
            hot = self.heat.hot_shards(min_reads=min_reads, skew=skew)
            if not hot:
                return []
            events: "List[RebalanceEvent]" = []
            budget = max(1, int(self.lru.capacity
                                * self.preload_fraction))
            for shard in hot:
                preloaded = 0
                for key, payload in self.backing.shard_payloads(
                        shard).items():
                    if preloaded >= budget:
                        break
                    if key not in self.lru:
                        self.lru.put(key, _freeze(payload))
                        preloaded += 1
                reclaimed = 0
                if self.backing.dead_bytes(shard) > 0:
                    reclaimed = self.backing.compact_shard(shard)
                events.append(RebalanceEvent(
                    shard=shard, preloaded=preloaded,
                    reclaimed_bytes=reclaimed))
            self.heat.decay()
            return events

    # -- plumbing ----------------------------------------------------------------

    @property
    def root(self) -> Any:
        return self.backing.root

    def __getattr__(self, name: str) -> Any:
        try:
            backing = object.__getattribute__(self, "backing")
        except AttributeError:
            raise AttributeError(name)
        return getattr(backing, name)

    def __getstate__(self) -> dict:
        # Locks do not pickle; a worker-side copy (never read — cache
        # resolution is parent-side) gets a fresh empty tier.
        return {"backing": self.backing,
                "capacity": self.lru.capacity}

    def __setstate__(self, state: dict) -> None:
        self.backing = state["backing"]
        self.lru = LRUCache(state["capacity"])
        self.stats = CacheStats()
        self.heat = ShardHeat()
        self._lock = threading.RLock()
        self.preload_fraction = 0.25
