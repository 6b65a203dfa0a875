"""The web-based testing tool (§4.3(ii), App. Figure 4).

A fixed 18-step delay ladder with dedicated dual-stack address pairs
and per-delay domains, an echo server revealing the used source
address to the client, session drivers for visiting browsers, and
campaign aggregation over the Table 5 browser/OS matrix.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "campaign": ("BrowserAggregate", "CampaignResult", "TABLE5_MATRIX",
                 "UAEntry", "WebCampaign", "WebRun", "profile_for_entry",
                 "run_web_plan"),
    "ladder": ("DELAY_LADDER_MS", "DelayStep", "WEBTOOL_DOMAIN",
               "build_ladder", "cad_interval_from_outcomes"),
    "rd_page": ("RD_DELAY_STEPS_MS", "RDProbeOutcome", "RDSessionResult",
                "RDWebSession", "render_rd_session"),
    "report": ("ConsistencyMark", "classify_consistency",
               "format_cad_interval", "render_session_ladder"),
    "server": ("WebToolDeployment",),
    "session": ("NetworkConditions", "SessionResult", "StepOutcome",
                "WebToolSession"),
})
