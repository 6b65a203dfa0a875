"""Transport protocols over the simulated network.

TCP and QUIC expose the handshake observables the study measures
(connection-attempt packets, success/refusal/timeout); UDP carries DNS.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "errors": ("ConnectError", "ConnectRefused", "ConnectTimeout",
               "ConnectionAborted", "PortInUse", "SocketClosed",
               "TransportError"),
    "quic": ("QUICConnection", "QUICConnectionState", "QUICListener",
             "QUICStack"),
    "tcp": ("TCPConnection", "TCPListener", "TCPStack", "TCPState",
            "DEFAULT_INITIAL_RTO", "DEFAULT_SYN_RETRIES"),
    "udp": ("Datagram", "UDPSocket", "UDPStack"),
})
