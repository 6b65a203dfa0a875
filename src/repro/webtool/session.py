"""One browser session visiting the web tool.

The session walks the delay ladder, fetching one fresh nonce hostname
per step, and determines the used IP family *client-side* from the
echoed source address — exactly how the real tool evaluates results
(§4.3(ii)).  Real-world network conditions (base delay, jitter) and
per-session connection history (feeding Safari's dynamic CAD) make
web results deviate from lab results exactly as the paper observes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..clients.base import Client
from ..clients.profile import ClientProfile
from ..core.sortlist import HistoryStore
from ..simnet.addr import Family
from ..simnet.netem import NetemRule, NetemSpec
from .ladder import cad_interval_from_outcomes
from .server import WebToolDeployment


@dataclass(frozen=True)
class NetworkConditions:
    """Per-session access network model (both families equally)."""

    one_way_delay: float = 0.010
    jitter: float = 0.002
    loss: float = 0.0

    @classmethod
    def lab_like(cls) -> "NetworkConditions":
        return cls(one_way_delay=0.0005, jitter=0.0, loss=0.0)

    @classmethod
    def residential(cls) -> "NetworkConditions":
        return cls(one_way_delay=0.015, jitter=0.004)


@dataclass
class StepOutcome:
    """Client-side result for one ladder step."""

    delay_ms: int
    used_family: Optional[Family]
    connect_time_s: Optional[float]
    success: bool

    @property
    def used_ipv6(self) -> Optional[bool]:
        if self.used_family is None:
            return None
        return self.used_family is Family.V6


@dataclass
class SessionResult:
    """One full ladder pass by one browser."""

    browser: str
    os_name: str
    repetition: int
    outcomes: List[StepOutcome] = field(default_factory=list)

    def cad_interval(self) -> "Tuple[Optional[int], Optional[int]]":
        pairs = [(o.delay_ms, o.used_ipv6) for o in self.outcomes
                 if o.used_ipv6 is not None]
        return cad_interval_from_outcomes(
            [(d, used) for d, used in pairs])

    def is_monotonic(self) -> bool:
        """True when no IPv6 outcome follows an IPv4 outcome.

        The paper calls runs violating this "inconsistencies": IPv4 at
        a smaller delay but IPv6 again at a larger one.
        """
        seen_v4 = False
        for outcome in sorted(self.outcomes, key=lambda o: o.delay_ms):
            if outcome.used_ipv6 is None:
                continue
            if not outcome.used_ipv6:
                seen_v4 = True
            elif seen_v4:
                return False
        return True


class WebToolSession:
    """Drives one browser through the ladder.

    ``session_index`` names the session within its deployment: it
    feeds the session's RNG and host name, so results are a pure
    function of the caller's configuration, never of how many sessions
    the process built before.
    """

    def __init__(self, deployment: WebToolDeployment,
                 profile: ClientProfile,
                 os_name: Optional[str] = None,
                 repetition: int = 0,
                 conditions: Optional[NetworkConditions] = None,
                 *, session_index: int) -> None:
        self.deployment = deployment
        self.profile = profile
        self.os_name = os_name or profile.os_hint
        self.repetition = repetition
        self.conditions = conditions or NetworkConditions.residential()
        self.host = deployment.attach_browser_host(
            f"{session_index}-{profile.name.lower().replace(' ', '')}")
        self._apply_conditions()
        self._rng = deployment.sim.derive_rng(
            f"web-session:{profile.full_name}:{self.os_name}:"
            f"{repetition}:{session_index}")
        self.history = HistoryStore()
        self.client = Client(self.host, profile,
                             [deployment.dns_address],
                             history=self.history)

    # -- session environment -------------------------------------------------

    def _apply_conditions(self) -> None:
        iface = next(iter(self.host.interfaces.values()))
        spec = NetemSpec(delay=self.conditions.one_way_delay,
                         jitter=self.conditions.jitter,
                         loss=self.conditions.loss)
        iface.egress.add_rule(NetemRule(spec=spec, name="access-network"))

    def _prime_dynamic_cad_history(self, step) -> None:
        """Give Safari's dynamic CAD a realistic, noisy RTT history.

        In the wild, Safari has per-destination RTT history from
        earlier traffic; its effective CAD (≈2×SRTT, clamped) therefore
        varies widely between measurements — the paper's "dynamic,
        unpredictable approach" with CADs from 50 ms up to seconds.
        A fraction of destinations has no history at all, yielding the
        maximum CAD.
        """
        if not self.profile.stack.racing.dynamic_cad:
            return
        if self._rng.random() < 0.25:
            return  # no prior traffic toward this destination
        # Log-normal-ish spread around tens of milliseconds.
        srtt = min(2.5, self._rng.lognormvariate(-2.6, 1.1))
        now = self.deployment.sim.now
        self.history.record_success(step.v6_address, srtt, now)
        self.history.record_success(step.v4_address, srtt, now)

    # -- the ladder walk --------------------------------------------------------

    def run(self) -> SessionResult:
        result = SessionResult(browser=self.profile.full_name,
                               os_name=self.os_name,
                               repetition=self.repetition)
        sim = self.deployment.sim
        for step in self.deployment.ladder:
            self._prime_dynamic_cad_history(step)
            nonce = f"{self._rng.randrange(16**6):06x}"
            hostname = step.hostname(nonce)
            process = self.client.fetch(hostname)
            process.defused = True
            sim.run(until=sim.now + 30.0)
            if process.triggered and process.ok:
                fetch = process.value
                result.outcomes.append(StepOutcome(
                    delay_ms=step.delay_ms,
                    used_family=fetch.used_family,
                    connect_time_s=fetch.he.time_to_connect,
                    success=fetch.success))
            else:
                result.outcomes.append(StepOutcome(
                    delay_ms=step.delay_ms, used_family=None,
                    connect_time_s=None, success=False))
        return result
