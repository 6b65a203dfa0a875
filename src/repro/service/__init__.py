"""The long-lived campaign service (admission, single-flight, tiering).

One-shot CLI campaigns are process-per-invocation; the population-scale
workload the ROADMAP targets is the opposite shape — millions of
``(client, scenario, value, repetition)`` coordinates arriving from many
concurrent sessions, mostly redundant, hammering one store.  This
package is the serving layer for that shape:

* :mod:`~repro.service.core` — :class:`CampaignService`: admission
  through the Experiment registry's pure ``plan()`` (the admitted
  plan is the one that executes, and a repeated submission reuses a
  completely executed plan instead of planning again), submission
  coalescing, and per-submission sessions threaded through the
  fault-tolerant runtime (journal + retrying ``shared_map``).
* :mod:`~repro.service.singleflight` — in-flight key dedup: a stampede
  of identical requests executes every run exactly once.
* :mod:`~repro.service.tiering` — a bounded in-memory LRU in front of
  the (packed) campaign store.
* :mod:`~repro.service.http` — a stdlib HTTP endpoint (`repro serve`)
  and the matching client (`repro submit`).

The invariant is inherited from everything below it and pinned by the
service tests: a result served here is byte-identical to the same
experiment run directly via ``repro run``, cold or warm, serial or
parallel.
"""

from .._lazy import lazy_exports

#: Where ``repro serve`` binds and ``repro submit`` connects by default
#: (defined here so the CLI parser reads them without the HTTP stack).
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8377

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "core": ("AdmissionError", "CampaignService", "ServedResult"),
    "singleflight": ("SingleFlight", "SingleFlightStore"),
    "tiering": ("LRUCache", "TieredStore"),
})
