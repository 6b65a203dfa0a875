"""The local testbed framework (§4.3(i), App. B).

Two directly connected simulated hosts, server-side traffic shaping and
DNS delay injection, client-side packet capture, and a runner that
iterates test cases × sweep configurations × clients with full state
isolation per run.
"""

from .config import (ImpairmentSpec, SweepSpec, TestCaseConfig,
                     TestCaseKind, address_selection_case, cad_case,
                     delayed_a_case, rd_case)
from .inference import (CaptureObservation, aaaa_before_a,
                        attempt_sequence, attempts_per_family,
                        clear_dns_decode_intern, dns_observations,
                        established_family, infer_cad,
                        infer_resolution_delay, query_order,
                        time_to_first_attempt)
from .modules import (AddressSelectionModule, CaptureModule, DnsDelayModule,
                      ImpairmentModule, NetemModule, SetupModule,
                      modules_for)
from .parallel import RunSpec, spec_keys
from .resilience import (CampaignJournal, FailureEntry, FaultManifest,
                         Resilience, RetryPolicy, failure_record,
                         is_harness_failure)
from .runner import (NonMonotonicSeriesError, ResultSet, RunRecord,
                     StreamingResultSet, TestRunner, majority_family,
                     series_flap_window)
from .spec import CampaignSpec, SpecError, run_campaign_spec
from .store import (CacheStats, CampaignStore, PackedCampaignStore,
                    config_digest, open_store)
from .topology import (EchoExchange, EchoWebServer, LocalTestbed,
                       TEST_DOMAIN, WEB_PORT)

__all__ = [
    "AddressSelectionModule", "CacheStats",
    "CampaignJournal", "CampaignSpec", "CampaignStore", "CaptureModule",
    "CaptureObservation", "DnsDelayModule", "FailureEntry",
    "FaultManifest", "ImpairmentModule", "ImpairmentSpec",
    "NonMonotonicSeriesError", "PackedCampaignStore", "Resilience",
    "RetryPolicy", "RunSpec", "open_store",
    "SpecError", "StreamingResultSet", "failure_record",
    "is_harness_failure", "run_campaign_spec",
    "EchoExchange", "EchoWebServer", "LocalTestbed", "NetemModule",
    "ResultSet", "RunRecord", "SetupModule", "SweepSpec", "TEST_DOMAIN",
    "TestCaseConfig", "TestCaseKind", "TestRunner", "WEB_PORT",
    "aaaa_before_a", "address_selection_case", "attempt_sequence",
    "attempts_per_family", "cad_case", "clear_dns_decode_intern",
    "config_digest", "delayed_a_case",
    "dns_observations", "established_family",
    "infer_cad", "infer_resolution_delay", "majority_family",
    "modules_for", "query_order", "rd_case", "series_flap_window",
    "spec_keys", "time_to_first_attempt",
]
