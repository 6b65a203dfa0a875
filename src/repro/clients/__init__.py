"""Client models: the black boxes under test.

Each measured client (browsers, curl, wget, iCPR egress operators) is a
:class:`ClientProfile` — a parameterization of the real HE engine in
:mod:`repro.core` — instantiated as a runnable :class:`Client` on a
simulated host.  The registry carries every client/version from
Figure 2 and Table 2.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "base": ("CLIENT_STUB_TIMEOUT", "Client", "FetchResult"),
    "icpr": ("AKAMAI_EGRESS", "CLOUDFLARE_EGRESS", "EGRESS_OPERATORS",
             "EgressOperatorProfile", "ICPREgressNode", "ICPRRelayClient",
             "ICPRRelayService"),
    "profile": ("ClientProfile", "SERIAL_CAD", "chromium_stack",
                "curl_stack", "gecko_stack", "hev3_reference_stack",
                "webkit_stack", "wget_stack"),
    "registry": ("all_profiles", "figure2_clients", "get_profile",
                 "local_testbed_clients", "resolve_profiles",
                 "table2_clients"),
})
