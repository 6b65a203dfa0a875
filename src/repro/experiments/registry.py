"""The process-wide experiment registry.

One flat namespace of every :class:`~repro.experiments.base.Experiment`
the package knows how to produce.  Registration order is presentation
order (``repro ls`` lists the catalogue the way the paper does:
tables, figures, diagnostics, conformance).  The registry is the
*only* authority on what exists: the CLI dispatches through it, and
``repro cache gc`` computes its live-key universe as the union of
every registered experiment's plan — so registering an experiment is
all it takes to make it runnable, listable, and gc-safe.

Every lookup first loads the built-in catalogue, so the built-ins
always register first and in catalogue order, whichever module imports
the registry first.
"""

from __future__ import annotations

from importlib import import_module
from typing import Dict, Iterator, List

from .base import Experiment

_REGISTRY: "Dict[str, Experiment]" = {}
_ORDER: "List[str]" = []


def _load_catalog() -> None:
    """Import the built-in catalogue once.  Its own ``register`` calls
    re-enter here and get the partially initialized module back."""
    import_module(".catalog", __package__)


def register(experiment: Experiment) -> Experiment:
    """Add an experiment to the registry (import-time, once).

    Raises :class:`ValueError` on a duplicate name — two experiments
    silently shadowing each other would make ``repro run`` ambiguous
    and gc planning wrong.
    """
    _load_catalog()
    if not experiment.name:
        raise ValueError("experiment needs a non-empty name")
    if experiment.name in _REGISTRY:
        raise ValueError(
            f"experiment {experiment.name!r} is already registered")
    _REGISTRY[experiment.name] = experiment
    _ORDER.append(experiment.name)
    return experiment


def get_experiment(name: str) -> Experiment:
    """Look up one experiment; KeyError lists the valid names."""
    _load_catalog()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(_ORDER)
        raise KeyError(f"no experiment named {name!r} (known: {known})")


def all_experiments() -> "List[Experiment]":
    """Every registered experiment, in registration order."""
    _load_catalog()
    return [_REGISTRY[name] for name in _ORDER]


def experiment_names() -> "Iterator[str]":
    _load_catalog()
    return iter(_ORDER)
