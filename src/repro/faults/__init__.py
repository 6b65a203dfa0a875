"""Deterministic fault injection for the campaign runtime.

See :mod:`repro.faults.plan` for the model.  The package exists so
chaos tooling (CLI ``--fault-plan``, spec ``faults`` stanzas, the
robustness battery) shares one vocabulary of injectable faults.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "plan": ("ENTRY_KINDS", "STORE_KINDS", "WRITE_KINDS", "FaultKind",
             "FaultPlan", "FaultPlanError", "FaultSpec", "InjectedFault",
             "inject_entry_fault"),
})
