"""Full DNS implementation: wire format, zones, servers, resolvers.

This package provides every DNS component the study needs:

* RFC 1035 wire codec with compression (:mod:`repro.dns.message`),
* the record types HE versions consume, including SVCB/HTTPS
  (:mod:`repro.dns.rdata`),
* zones with delegation, glue, and wildcards (:mod:`repro.dns.zone`),
* the paper's custom authoritative server with qname-encoded test
  parameters (:mod:`repro.dns.auth`),
* a client stub resolver with HEv2's paired AAAA/A lookup
  (:mod:`repro.dns.stub`),
* a policy-driven iterative recursive resolver and a forwarding
  resolver (:mod:`repro.dns.recursive`, :mod:`repro.dns.nsselect`).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "auth": ("AuthoritativeServer", "QueryLogEntry", "TestParams"),
    "cache": ("CacheEntry", "DNSCache"),
    "errors": ("DNSError", "MessageError", "NoAnswerError", "NxDomainError",
               "QueryTimeout", "ResolutionError", "ServFailError"),
    "message": ("DNSMessage", "Opcode", "Question", "Rcode", "ResourceRecord"),
    "name": ("DNSName",),
    "nsselect": ("ConfigurableNSPolicy", "GluePlan", "ResolverBehavior",
                 "RetryAction", "ServerInfo"),
    "rdata": ("A", "AAAA", "CNAME", "HTTPS", "NS", "OPT", "PTR", "Rdata",
              "RdataClass", "RdataType", "SOA", "SVCB", "SvcParamKey", "TXT",
              "address_rdata"),
    "recursive": ("ForwardingResolver", "RecursiveResolver",
                  "ResolutionResult", "UpstreamQuery"),
    "stub": ("DualLookup", "StubAnswer", "StubResolver"),
    "zone": ("LookupKind", "NotInZoneError", "RRset", "Zone",
             "ZoneLookupResult"),
})
