"""In-process span recorder, installed into a repro process from outside.

The benchmark never edits ``src/``: :func:`install` wraps public
callables of the repro modules (classes' methods and module functions)
with thin timing wrappers.  Each wrapper records one span
``(name, start, end, extra)`` on ``time.perf_counter``,
which is CLOCK_MONOTONIC on Linux and therefore comparable with the
load generator's clock in the parent process.  Spans stay in memory
and are written out once, by :meth:`Tracer.dump`.

A span whose name is already open on the same thread is not recorded
again (``PackedCampaignStore.get_many`` may call its base class, a
nested ``plan`` may call another experiment's ``plan``), so counts are
counts of layer entries, not of Python calls.  Forked pool workers
inherit the wrappers but record nothing: their spans would be lost
with the process.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter

Annotate = Callable[[tuple, dict, Any], Optional[Dict[str, Any]]]


class Tracer:
    """Holds the spans of one process."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, Any]] = []
        self.enabled = True
        self._open = threading.local()
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        self.enabled = False
        self.spans = []

    def _names(self) -> set:
        names = getattr(self._open, "names", None)
        if names is None:
            names = self._open.names = set()
        return names

    def record(self, name: str, start: float, end: float,
               extra: Any = None) -> None:
        if self.enabled:
            self.spans.append((name, start, end, extra))

    # -- wrapper factories ------------------------------------------------------

    def call(self, fn: Callable, name: str,
             annotate: Optional[Annotate] = None,
             list_arg: Optional[int] = None,
             materialize: bool = False) -> Callable:
        """A span around each call of ``fn``.

        ``list_arg`` turns that positional argument into a list first
        (so an annotation can count it after ``fn`` consumed it);
        ``materialize`` drains an iterator result inside the span, so a
        lazy ``plan()`` is timed where its keys are produced.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            names = tracer._names()
            if not tracer.enabled or name in names:
                return fn(*args, **kwargs)
            if list_arg is not None and len(args) > list_arg:
                args = (args[:list_arg] + (list(args[list_arg]),)
                        + args[list_arg + 1:])
            names.add(name)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = iter(list(result))
            finally:
                end = _clock()
                names.discard(name)
            extra = annotate(args, kwargs, result) if annotate else None
            tracer.spans.append((name, start, end, extra))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def generator(self, fn: Callable, name: str,
                  annotate: Optional[Annotate] = None) -> Callable:
        """A span around each ``next()`` of the iterator ``fn`` returns
        (time the consumer is blocked on it); the first span carries
        the annotation."""
        tracer = self

        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            if not tracer.enabled:
                return iterator
            extra = annotate(args, kwargs, None) if annotate else None
            return tracer._timed(iterator, name, extra)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _timed(self, iterator, name: str, extra: Any):
        while True:
            start = _clock()
            try:
                value = next(iterator)
            except StopIteration:
                self.record(name, start, _clock(), extra)
                return
            self.record(name, start, _clock(), extra)
            extra = None
            yield value

    # -- output -----------------------------------------------------------------

    def dump(self, path: str) -> None:
        names: Dict[str, int] = {}
        rows = []
        for name, start, end, extra in self.spans:
            index = names.setdefault(name, len(names))
            rows.append([index, start, end, extra])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": list(names), "spans": rows}, handle,
                      separators=(",", ":"))


# -- what gets wrapped -----------------------------------------------------------


def _derived(args, kwargs, result) -> Dict[str, int]:
    return {"keys": len(result)}


def _lookup(args, kwargs, result) -> Dict[str, int]:
    return {"keys": len(args[1]), "found": len(result)}


def _tasks(args, kwargs, result) -> Dict[str, int]:
    return {"tasks": len(args[1])}


def _candidates(args, kwargs, result) -> Dict[str, int]:
    return {"candidates": len(args[1])}


def _service_counters(args, kwargs, result) -> Dict[str, int]:
    service = args[0].server.service
    lru = service.store.lru
    return {"lru_hits": lru.hits, "lru_misses": lru.misses,
            "evictions": lru.evictions,
            "coalesced": service.stats.coalesced}


def _replace_function(original: Callable, wrapper: Callable) -> None:
    """Point every ``repro`` module binding of ``original`` (including
    ``from x import f`` copies) at ``wrapper``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _patch_methods(tracer: Tracer, classes, attr: str, name: str,
                   **options: Any) -> None:
    for cls in classes:
        fn = vars(cls).get(attr)
        if fn is not None and not hasattr(fn, "__wrapped__"):
            setattr(cls, attr, tracer.call(fn, name, **options))


def install(tracer: Tracer, service: bool = False) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from repro import fanout
    from repro.experiments import all_experiments
    from repro.experiments.base import Experiment
    from repro.simnet.scheduler import Simulator
    from repro.synthesis.score import Scorer
    from repro.testbed import parallel
    from repro.testbed.inference import CaptureObservation
    from repro.testbed.resilience import CampaignJournal
    from repro.testbed.runner import StreamingResultSet, TestRunner
    from repro.testbed.store import CampaignStore, PackedCampaignStore
    from repro.testbed.topology import LocalTestbed

    experiment_classes = {cls for experiment in all_experiments()
                          for cls in type(experiment).__mro__
                          if issubclass(cls, Experiment)}
    _patch_methods(tracer, experiment_classes, "plan", "experiments.plan",
                   materialize=True)
    _patch_methods(tracer, experiment_classes, "execute",
                   "experiments.execute")
    _patch_methods(tracer, experiment_classes, "render",
                   "experiments.render")
    # Per-record aggregation: the figure2 StreamingResultSet and the
    # population experiments' StreamingCDF fold.
    _patch_methods(tracer, experiment_classes, "_aggregate",
                   "analysis.aggregate")
    _patch_methods(tracer, [StreamingResultSet], "add",
                   "analysis.aggregate")

    stores = [CampaignStore, PackedCampaignStore]
    _patch_methods(tracer, stores, "get_many", "store.get_many",
                   annotate=_lookup, list_arg=1)
    _patch_methods(tracer, stores, "put", "store.put")
    _patch_methods(tracer, [CampaignJournal], "record", "journal.record")
    _patch_methods(tracer, [LocalTestbed], "__init__", "topology.build")
    _patch_methods(tracer, [TestRunner], "run_single", "runner.run_single")
    _patch_methods(tracer, [Simulator], "run", "simnet.run")
    _patch_methods(tracer, [CaptureObservation], "__init__",
                   "inference.observe")
    _patch_methods(tracer, [Scorer], "score_candidates", "synthesis.score",
                   annotate=_candidates, list_arg=1)

    spec_keys = parallel.spec_keys
    _replace_function(spec_keys, tracer.call(
        spec_keys, "keys.derive", annotate=_derived))
    shared_map = fanout.shared_map
    _replace_function(shared_map, tracer.generator(
        shared_map, "dispatch.wait", annotate=_tasks))

    if service:
        from repro.service.core import CampaignService
        from repro.service.http import ServiceRequestHandler
        from repro.service.tiering import TieredStore

        _patch_methods(tracer, [CampaignService], "_admit", "service.admit")
        _patch_methods(tracer, [CampaignService], "_execute",
                       "service.execute")
        _patch_methods(tracer, [ServiceRequestHandler], "do_POST",
                       "http.handle", annotate=_service_counters)
        _patch_methods(tracer, [TieredStore], "get_many", "tier.get_many",
                       list_arg=1)
        _patch_methods(tracer, [TieredStore], "put", "tier.put")
