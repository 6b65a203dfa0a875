"""The web tool's Resolution Delay test page (App. Figure 4b).

The RD page exercises the DNS side: each probe fetches a hostname whose
first label encodes the test parameters for the custom authoritative
server — ``d<ms>-aaaa-<nonce>.rd.web.he-test.example`` delays the AAAA
answer by ``<ms>`` — and the page records, client-side, which family
served the response and how long the fetch took.

A client implementing the RFC 8305 Resolution Delay (Safari) flips to
IPv4 after ~50 ms once the AAAA answer is slower than that; a client
waiting for both answers (everyone else) sticks with IPv6 but stalls
for the full injected delay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..clients.base import Client
from ..clients.profile import ClientProfile
from ..dns.auth import TestParams
from ..simnet.addr import Family
from .ladder import WEBTOOL_DOMAIN
from .server import WebToolDeployment
from .session import NetworkConditions

#: AAAA delays probed by the RD page (ms).
RD_DELAY_STEPS_MS: Tuple[int, ...] = (0, 25, 50, 100, 250, 500, 1000,
                                      2000)


@dataclass
class RDProbeOutcome:
    """One RD-page probe, evaluated client-side."""

    aaaa_delay_ms: int
    used_family: Optional[Family]
    fetch_time_s: Optional[float]
    success: bool


@dataclass
class RDSessionResult:
    """One full RD-page pass."""

    browser: str
    outcomes: List[RDProbeOutcome] = field(default_factory=list)

    def flip_delay_ms(self) -> Optional[int]:
        """Smallest AAAA delay at which the client used IPv4.

        ``None`` means the client never left IPv6 — the signature of a
        client without any resolution delay.
        """
        v4 = sorted(o.aaaa_delay_ms for o in self.outcomes
                    if o.used_family is Family.V4)
        return v4[0] if v4 else None

    def max_stall_s(self) -> Optional[float]:
        times = [o.fetch_time_s for o in self.outcomes
                 if o.fetch_time_s is not None]
        return max(times) if times else None

    def implements_rd(self) -> bool:
        """Heuristic the result page shows: flips early, never stalls."""
        flip = self.flip_delay_ms()
        stall = self.max_stall_s()
        return (flip is not None and flip <= 100
                and stall is not None and stall < 0.500)


class RDWebSession:
    """Runs the RD test page once for one browser.

    ``session_index`` names the session within its deployment: it
    feeds the session's RNG and host name, so results are a pure
    function of the caller's configuration, never of how many sessions
    the process built before.
    """

    def __init__(self, deployment: WebToolDeployment,
                 profile: ClientProfile,
                 conditions: Optional[NetworkConditions] = None,
                 delays_ms: Tuple[int, ...] = RD_DELAY_STEPS_MS,
                 *, session_index: int) -> None:
        self.deployment = deployment
        self.profile = profile
        self.delays_ms = delays_ms
        self.host = deployment.attach_browser_host(f"rd{session_index}")
        conditions = conditions or NetworkConditions.lab_like()
        iface = next(iter(self.host.interfaces.values()))
        from ..simnet.netem import NetemRule, NetemSpec

        iface.egress.add_rule(NetemRule(
            spec=NetemSpec(delay=conditions.one_way_delay,
                           jitter=conditions.jitter,
                           loss=conditions.loss),
            name="access-network"))
        self._rng = deployment.sim.derive_rng(
            f"rd-session:{profile.full_name}:{session_index}")
        self.client = Client(self.host, profile,
                             [deployment.dns_address])

    def run(self) -> RDSessionResult:
        result = RDSessionResult(browser=self.profile.full_name)
        sim = self.deployment.sim
        for delay_ms in self.delays_ms:
            nonce = f"{self._rng.randrange(16**6):06x}"
            params = TestParams(delay_ms=delay_ms, delayed_rtype="aaaa",
                                nonce=nonce)
            hostname = str(params.query_name(
                f"rd.{WEBTOOL_DOMAIN}")).rstrip(".")
            started = sim.now
            process = self.client.fetch(hostname)
            process.defused = True
            sim.run(until=sim.now + 30.0)
            if process.triggered and process.ok:
                fetch = process.value
                result.outcomes.append(RDProbeOutcome(
                    aaaa_delay_ms=delay_ms,
                    used_family=fetch.used_family,
                    fetch_time_s=fetch.he.time_to_connect,
                    success=fetch.success))
            else:
                result.outcomes.append(RDProbeOutcome(
                    aaaa_delay_ms=delay_ms, used_family=None,
                    fetch_time_s=None, success=False))
        return result


def render_rd_session(result: RDSessionResult) -> str:
    """ASCII version of the RD result page (App. Figure 4b)."""
    lines = [f"{result.browser} — Resolution Delay test",
             f"{'AAAA delay':>11}  {'family':>6}  {'fetch time':>11}"]
    for outcome in result.outcomes:
        family = (outcome.used_family.label
                  if outcome.used_family is not None else "FAILED")
        time_text = (f"{outcome.fetch_time_s * 1000:8.1f} ms"
                     if outcome.fetch_time_s is not None else "-")
        lines.append(f"{outcome.aaaa_delay_ms:>8} ms  {family:>6}  "
                     f"{time_text:>11}")
    flip = result.flip_delay_ms()
    if result.implements_rd():
        lines.append(f"resolution delay implemented: flips to IPv4 at "
                     f"~{flip} ms AAAA delay")
    elif flip is None:
        lines.append("no resolution delay: stays on IPv6 and stalls for "
                     "the full AAAA delay")
    return "\n".join(lines)
