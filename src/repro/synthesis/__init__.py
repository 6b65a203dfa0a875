"""Adversarial scenario synthesis: search the impairment space.

The conformance battery's scenarios are hand-written; this package
grows it automatically.  A :class:`ScenarioSpace` declares the
searchable dimensions (per-family shaping, resolver behaviour,
SVCB/QUIC service knobs, dual-stage combinations) as quantized value
sets, a seeded :class:`SearchStrategy` drives coarse grid seeding and
local refinement, a :class:`Scorer` probes every candidate through
the regular campaign machinery and scores fingerprint disagreement /
new-deviation discovery / per-stage ablation drift, and a
:class:`Promoter` emits the top discriminators as declarative battery
scenarios with provenance.  Registered as the ``synthesize-scenarios``
and ``synthesize-report`` experiments.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "promote": ("Promoter", "Promotion", "battery_identities"),
    "score": ("ABLATION_STAGES", "CandidateScore", "Scorer",
              "ablation_variants", "rank", "signature_of"),
    "search": ("RoundReport", "SearchBudget", "SearchResult",
               "SearchStrategy", "SynthesisSearch"),
    "space": ("Candidate", "Dimension", "ScenarioSpace", "SORTLIST_SPACE"),
})
