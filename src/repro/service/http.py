"""HTTP front end for the campaign service (stdlib only).

``repro serve`` binds a :class:`ThreadingHTTPServer` over a
:class:`~repro.service.core.CampaignService`; ``repro submit`` is the
matching client.  The wire format is deliberately plain JSON:

* ``POST /submit`` — ``{"experiment": name, "knobs": {...}}`` →
  ``{"ok": true, "text": ..., "planned": ..., "hits": ...,
  "executed": ..., "waited": ..., "coalesced": ..., "digest": ...}``
  (plus ``"data"`` when the artifact has a machine-readable form).
  Artifact text rides as a JSON string, which round-trips exactly —
  the client reprints it byte-identical to ``repro run``.
* ``GET /health`` — liveness plus the registered experiment count.
* ``GET /stats`` — service counters, tier counters, single-flight
  counters: the service's lifetime :class:`~repro.metrics.Metrics`.

Each request is handled on its own thread (admission layer); execution
slots are bounded by the service's own pool, so a submission storm
queues instead of forking unbounded work.

Every reply — status line, headers and body — leaves in one socket
write on a ``TCP_NODELAY`` socket, so a small reply is one segment.
Written as head then body, the body would wait for the client's
delayed ACK of the head (Nagle's algorithm), about 40 ms a request.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib import error as urlerror
from urllib import request as urlrequest

from . import DEFAULT_HOST, DEFAULT_PORT
from .core import AdmissionError, CampaignService, ServedResult


def result_payload(result: ServedResult) -> "Dict[str, Any]":
    payload: "Dict[str, Any]" = {
        "ok": True,
        "experiment": result.experiment,
        "digest": result.digest,
        "text": result.text,
        "planned": result.planned,
        "hits": result.hits,
        "executed": result.executed,
        "waited": result.waited,
        "coalesced": result.coalesced,
    }
    if result.data is not None:
        try:
            json.dumps(result.data)
        except (TypeError, ValueError):
            pass
        else:
            payload["data"] = result.data
    return payload


def summary_line(payload: "Dict[str, Any]") -> str:
    """The ``[service]`` accounting line of a :func:`result_payload`
    (``repro submit`` prints it to stderr)."""
    return (f"[service] planned={payload['planned']} "
            f"hits={payload['hits']} executed={payload['executed']} "
            f"waited={payload['waited']} "
            f"coalesced={str(payload['coalesced']).lower()}")


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """One request; the owning server carries the service reference."""

    server: "CampaignServiceServer"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on every accepted socket: the last partial segment
    #: of a large reply never waits for the client's ACK.
    disable_nagle_algorithm = True

    def _reply(self, status: int, payload: "Dict[str, Any]") -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.request_version == "HTTP/0.9":
            self.wfile.write(body)  # a bare body: no status, no headers
            return
        # Not end_headers() and a second write for the body: Nagle
        # would hold the body until the client's delayed ACK of the
        # head (~40 ms).  The blank line and the body join the buffered
        # head instead, so one write sends the whole reply.
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler naming
        service = self.server.service
        if self.path == "/health":
            from ..experiments.registry import all_experiments
            self._reply(200, {"ok": True,
                              "experiments": len(all_experiments())})
            return
        if self.path == "/stats":
            lru = service.store.lru
            self._reply(200, {"ok": True, **service.stats.stats_sections(
                tier={"lru_entries": len(lru),
                      "lru_evictions": lru.evictions},
                flight={"in_flight": service.flight.in_flight()})})
            return
        self._reply(404, {"ok": False, "error": f"no route {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler naming
        if self.path != "/submit":
            self._reply(404, {"ok": False,
                              "error": f"no route {self.path}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            body = json.loads(self.rfile.read(length).decode("utf-8")
                              or "{}")
            if not isinstance(body, dict):
                raise ValueError("body must be a JSON object")
            experiment = body.get("experiment")
            if not isinstance(experiment, str) or not experiment:
                raise ValueError("missing \"experiment\"")
            knobs = body.get("knobs") or {}
            if not isinstance(knobs, dict):
                raise ValueError("\"knobs\" must be an object")
        except (ValueError, UnicodeDecodeError) as exc:
            self._reply(400, {"ok": False, "error": str(exc)})
            return
        try:
            result = self.server.service.submit(experiment, knobs)
        except AdmissionError as exc:
            self._reply(422, {"ok": False, "error": str(exc)})
            return
        except Exception as exc:  # noqa: BLE001 - surfaced to client
            self._reply(500, {"ok": False,
                              "error": f"{type(exc).__name__}: {exc}"})
            return
        self._reply(200, result_payload(result))

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # request logging is the caller's business, not stderr's


class CampaignServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one CampaignService."""

    daemon_threads = True

    def __init__(self, service: CampaignService,
                 host: str = DEFAULT_HOST,
                 port: int = DEFAULT_PORT) -> None:
        super().__init__((host, port), ServiceRequestHandler)
        self.service = service

    def serve_background(self) -> threading.Thread:
        """serve_forever on a daemon thread (tests, embedding)."""
        thread = threading.Thread(target=self.serve_forever,
                                  name="campaign-service-http",
                                  daemon=True)
        thread.start()
        return thread

    @property
    def address(self) -> "Tuple[str, int]":
        return self.server_address[0], self.server_address[1]


def submit_request(experiment: str,
                   knobs: "Optional[Dict[str, Any]]" = None,
                   host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
                   timeout: float = 600.0) -> "Dict[str, Any]":
    """POST one submission to a running service; returns the decoded
    response payload.  Service-side rejections come back as the
    payload with ``ok: false`` rather than raising, so the CLI can
    render the error; transport failures raise ``OSError``."""
    body = json.dumps({"experiment": experiment,
                       "knobs": knobs or {}}).encode("utf-8")
    req = urlrequest.Request(
        f"http://{host}:{port}/submit", data=body,
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urlrequest.urlopen(req, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except urlerror.HTTPError as exc:
        try:
            return json.loads(exc.read().decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise OSError(f"service error {exc.code}") from exc
    except urlerror.URLError as exc:
        raise OSError(f"cannot reach service at {host}:{port}: "
                      f"{exc.reason}") from exc
