"""Blackbox conformance engine: scenario battery → RFC 8305 fingerprint.

The paper treats every client as a black box and infers its Happy
Eyeballs parameters from the wire; this subsystem turns that inference
into *verdicts*.  An adaptive battery of impairment scenarios (IPv6
delay sweeps, blackholes, loss, DNS pathologies, jitter, reordering,
rate limits — :mod:`repro.conformance.scenarios`) probes a client
profile through the regular campaign machinery, the coarse→fine sweep
refinement rides the content-addressed store
(:mod:`repro.conformance.probe`), and the observables assemble into
per-parameter verdicts with measured-vs-nominal deltas and explicit
RFC 8305 MUST/SHOULD deviation flags
(:mod:`repro.conformance.fingerprint`, rendered by
:mod:`repro.conformance.report`).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "drift": ("DriftRow", "FingerprintDiff", "diff_fingerprints",
              "fingerprint_diff_to_dict", "render_fingerprint_diff"),
    "fingerprint": ("ClientFingerprint", "Deviation", "ParameterVerdict",
                    "Requirement", "assemble_fingerprint",
                    "fingerprint_client", "outcomes_from_records"),
    "probe": ("ConformanceProbe", "ScenarioOutcome", "refinement_window"),
    "report": ("fingerprint_to_dict", "fingerprints_to_json",
               "render_battery_summary", "render_conformance_summary",
               "render_fingerprint", "render_scenario_catalog"),
    "scenarios": ("RFC8305Parameter", "SYNTH_PREFIX", "Scenario",
                  "hev3_battery", "scenario_battery", "scenario_by_name",
                  "sortlist_battery", "svcb_battery"),
})
