"""Happy Eyeballs core: RFC 6555 / RFC 8305 / draft-HEv3 algorithms.

The paper's subject matter.  :class:`HappyEyeballsEngine` composes the
phase implementations — resolution-delay state machine, address
sorting + interlacing, staggered connection racing, outcome caching,
SVCB-driven protocol selection — into a configurable client, and every
client model in :mod:`repro.clients` is a parameterization of it.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cache": ("CachedOutcome", "OutcomeCache"),
    "engine": ("HEResult", "HappyEyeballsEngine", "HappyEyeballsError"),
    "events": ("HEEvent", "HEEventKind", "HETrace"),
    "interlace": ("apply_interlace", "interlace_first_family_burst",
                  "interlace_rfc8305", "interlace_sequential"),
    "params": ("HEParams", "HEVersion", "InterlaceStrategy",
               "RFC_PARAMETER_SETS", "ResolutionPolicy", "hev3_draft_params",
               "rfc6555_params", "rfc8305_params"),
    "policy": ("PolicyStack", "RacingStage", "ResolutionStage",
               "SortingStage", "coerce_stack"),
    "racing": ("AllAttemptsFailed", "AttemptOutcome", "AttemptRecord",
               "ConnectionRacer", "NEVER_CAD", "RaceDeadlineExceeded",
               "RaceResult"),
    "resolution": ("ResolutionOutcome", "resolve_addresses"),
    "sortlist": ("AddressHistory", "HistoryStore", "POLICY_TABLES",
                 "PolicyEntry", "PolicyTable", "common_prefix_len",
                 "order_addresses", "policy_table", "scope_of",
                 "select_source"),
    "svcb": ("ServiceCandidate", "candidates_from_addresses",
             "candidates_from_svcb", "order_candidates"),
})
