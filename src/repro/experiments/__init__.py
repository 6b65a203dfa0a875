"""The unified Experiment API.

Every artifact the reproduction produces — tables, figures,
conformance reports, diagnostics — is a first-class, enumerable
:class:`Experiment` living in one process-wide registry:

* :meth:`Experiment.plan` returns every campaign run the experiment
  would reference as data — a ``Plan`` of typed entries with their
  seeds and store keys (pure — nothing executes) — which powers
  ``repro ls`` key counts, service admission, and a ``repro cache gc``
  that can never silently collect a registered experiment's entries;
* :meth:`Experiment.execute` consumes that plan through one shared
  :class:`Session` (seed, workers, campaign store, resilience bundle) —
  the one execution context every campaign runs under;
* :meth:`Experiment.render` turns the result into an
  :class:`Artifact` (text + optional machine-readable JSON).

Registering a new experiment (subclass + :func:`register`) is all it
takes to surface it in the CLI — ``repro ls``, ``repro run <name>``,
and gc liveness come from the registry, not from command plumbing.

The built-in catalogue (:mod:`repro.experiments.catalog`) loads on
the first registry lookup, not on import, so a leaf module such as
:mod:`repro.population.experiments` can import
:mod:`repro.experiments.base` without re-entering the catalogue.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "base": ("Artifact", "Experiment", "Knob", "Session", "knob_mapping"),
    "registry": ("all_experiments", "experiment_names", "get_experiment",
                 "register"),
    "catalog": ("FIGURE5_CLIENTS", "TABLE2_WEB_ENTRIES"),
})
