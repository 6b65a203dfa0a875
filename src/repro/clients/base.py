"""The runnable client: a profile instantiated on a host.

:class:`Client` is the black box the testbed measures — it resolves a
hostname, races connections per its profile, performs an HTTP-ish GET,
and reports what the *response body* said about the connection (the
web tool's client-side observable: the server echoes the client's
source address).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ..core.engine import HappyEyeballsEngine, HappyEyeballsError, HEResult
from ..core.events import HETrace
from ..core.sortlist import HistoryStore
from ..dns.stub import StubResolver
from ..simnet.addr import Family, IPAddress, family_of, parse_address
from ..simnet.host import Host
from ..simnet.process import Process
from .profile import ClientProfile

#: Clients in the study set no DNS timeout of their own (§5.2); their
#: stub waits essentially forever and inherits the resolver's timeout.
CLIENT_STUB_TIMEOUT = 3600.0


@dataclass
class FetchResult:
    """Outcome of one ``fetch()`` as the client sees it."""

    hostname: str
    he: HEResult
    body: Optional[bytes] = None
    reported_address: Optional[IPAddress] = None
    error: Optional[str] = None

    @property
    def success(self) -> bool:
        return self.body is not None

    @property
    def used_family(self) -> Optional[Family]:
        """Family as determined from the echoed source address."""
        if self.reported_address is None:
            return None
        return family_of(self.reported_address)


class Client:
    """A client profile bound to a host and a resolver."""

    def __init__(self, host: Host, profile: ClientProfile,
                 nameservers: Sequence[Union[str, IPAddress]],
                 history: Optional[HistoryStore] = None,
                 hev3_flag: bool = False,
                 attempt_timeout: Optional[float] = None) -> None:
        self.host = host
        self.profile = (profile.with_hev3_flag() if hev3_flag else profile)
        self.stub = StubResolver(host, nameservers,
                                 timeout=CLIENT_STUB_TIMEOUT, retries=0)
        self.history = history
        self.trace = HETrace()
        self._rng = host.sim.derive_rng(
            f"client:{profile.full_name}:{host.name}")
        self.engine = HappyEyeballsEngine(
            host, self.stub, self.profile.stack,
            history=history, query_first=self.profile.query_first,
            attempt_timeout=attempt_timeout)
        if self.profile.outlier_probability > 0.0:
            self._install_outlier_cad()

    def _install_outlier_cad(self) -> None:
        """Firefox-style rare late fallbacks: occasionally wait longer.

        "Only Firefox has a few outliers, but the median and standard
        deviation are within a ms of the obtained value" (§5.1).
        """
        profile = self.profile
        base_connect = self.engine._connect_body

        # Perturb per-connect by swapping the racing stage only: the
        # resolution and sorting declarations (including the per-OS
        # sortlist) must survive an outlier untouched.
        def perturbed_connect(hostname, port, trace):
            stack = profile.stack
            if self._rng.random() < profile.outlier_probability:
                racing = stack.racing
                stack = stack.with_racing(
                    connection_attempt_delay=(
                        racing.connection_attempt_delay
                        + self._rng.uniform(0.0, profile.outlier_extra_cad)))
            original = self.engine.stack
            self.engine.stack = stack
            try:
                result = yield from base_connect(hostname, port, trace)
            finally:
                self.engine.stack = original
            return result

        self.engine._connect_body = perturbed_connect

    # -- actions ------------------------------------------------------------------

    def connect(self, hostname: str, port: int = 80) -> Process:
        """Run Happy Eyeballs connection establishment only."""
        return self.engine.connect(hostname, port, trace=self.trace)

    def fetch(self, hostname: str, port: int = 80) -> Process:
        """Connect, GET, and read the echoed source address."""
        return self.host.sim.process(self._fetch_body(hostname, port),
                                     name=f"fetch:{hostname}")

    def _fetch_body(self, hostname: str, port: int):
        try:
            he_result = yield self.connect(hostname, port)
        except HappyEyeballsError as exc:
            return FetchResult(hostname=hostname, he=exc.result,
                               error=str(exc))
        connection = he_result.connection
        request = (f"GET /ip HTTP/1.1\r\nHost: {hostname}\r\n\r\n"
                   ).encode("ascii")
        connection.send(request)
        reply = yield connection.recv()
        connection.close()
        body = reply.split(b"\r\n\r\n", 1)[-1] if reply else b""
        reported: Optional[IPAddress] = None
        try:
            reported = parse_address(body.decode("ascii"))
        except Exception:  # noqa: BLE001 - body may be empty on failure
            pass
        return FetchResult(hostname=hostname, he=he_result, body=reply,
                           reported_address=reported)
