"""Resolver subjects under test: local daemons and open services (§5.3).

BIND 9, Unbound, and Knot Resolver are modeled as
:class:`~repro.dns.nsselect.ResolverBehavior` fingerprints driving the
real iterative engine; the 17 public open-resolver services carry both
their Table 4 inventory and their Table 3 behaviour.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "models": ("BIND9", "KNOT", "LOCAL_RESOLVERS", "LOCAL_RESOLVER_BY_NAME",
               "UNBOUND"),
    "open_resolvers": ("AaaaQueryMark", "OPEN_RESOLVERS",
                       "OPEN_RESOLVER_BY_NAME", "OpenResolverService",
                       "evaluated_services", "excluded_services"),
    "testbed": ("ResolverCampaignResult", "ResolverRun",
                "ResolverRunObservation", "ResolverTestbed",
                "probe_ipv6_only_capability", "resolver_campaign_plan",
                "run_resolver_campaign"),
})
