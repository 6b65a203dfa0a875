"""The long-lived campaign service (admission, single-flight, tiering).

One-shot CLI campaigns are process-per-invocation; the population-scale
workload the ROADMAP targets is the opposite shape — millions of
``(client, scenario, value, repetition)`` coordinates arriving from many
concurrent sessions, mostly redundant, hammering one store.  This
package is the serving layer for that shape:

* :mod:`~repro.service.core` — :class:`CampaignService`: admission
  through the Experiment registry's pure ``plan()``, submission
  coalescing, and per-submission sessions threaded through the
  fault-tolerant runtime (journal + retrying ``shared_map``).
* :mod:`~repro.service.singleflight` — in-flight key dedup: a stampede
  of identical requests executes every run exactly once.
* :mod:`~repro.service.tiering` — a bounded in-memory LRU in front of
  the (packed) campaign store, with hot-shard detection and background
  rebalancing.
* :mod:`~repro.service.http` — a stdlib HTTP endpoint (`repro serve`)
  and the matching client (`repro submit`).

The invariant is inherited from everything below it and pinned by the
service tests: a result served here is byte-identical to the same
experiment run directly via ``repro run``, cold or warm, serial or
parallel.
"""

from .core import (AdmissionError, CampaignService, ServedResult,
                   ServiceStats)
from .singleflight import SingleFlight, SingleFlightStore
from .tiering import LRUCache, RebalanceEvent, ShardHeat, TieredStore

__all__ = [
    "AdmissionError", "CampaignService", "LRUCache", "RebalanceEvent",
    "ServedResult", "ServiceStats", "ShardHeat", "SingleFlight",
    "SingleFlightStore", "TieredStore",
]
