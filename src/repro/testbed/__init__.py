"""The local testbed framework (§4.3(i), App. B).

Two directly connected simulated hosts, server-side traffic shaping and
DNS delay injection, client-side packet capture, and a runner that
iterates test cases × sweep configurations × clients with full state
isolation per run.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "config": ("ImpairmentSpec", "SweepSpec", "TestCaseConfig",
               "TestCaseKind", "address_selection_case", "cad_case",
               "delayed_a_case", "rd_case"),
    "inference": ("CaptureObservation",),
    "modules": ("AddressSelectionModule", "CaptureModule", "DnsDelayModule",
                "ImpairmentModule", "NetemModule", "SetupModule",
                "modules_for"),
    "parallel": ("RunSpec", "spec_keys"),
    "resilience": ("CampaignJournal", "FailureEntry", "Resilience",
                   "RetryPolicy", "failure_record", "is_harness_failure"),
    "runner": ("NonMonotonicSeriesError", "RunRecord", "StreamingResultSet",
               "TestRunner", "majority_family", "series_flap_window"),
    "spec": ("CampaignSpec", "SpecError", "run_campaign_spec"),
    "store": ("CampaignStore", "PackedCampaignStore", "config_digest",
              "open_store"),
    "topology": ("EchoExchange", "EchoWebServer", "LocalTestbed",
                 "TEST_DOMAIN", "WEB_PORT"),
})
