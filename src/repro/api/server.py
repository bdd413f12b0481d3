"""The HTTP front end: stdlib ``ThreadingHTTPServer`` over the service.

Same zero-dependency idiom as :class:`repro.obs.server.StatsServer`:
a daemon-threaded ``http.server`` bound to ``127.0.0.1`` by default,
``port=0`` picks an ephemeral port.  Routes:

* ``POST /verify`` — a program (JSON with ``program_hex`` /
  corpus-style ``bytecode_hex``, or raw wire bytes as
  ``application/octet-stream`` with query parameters) in, a
  :class:`~repro.api.models.Verdict` payload out.  Reject verdicts are
  still **200** — the verification *succeeded*, the program failed;
  400/422 are reserved for requests the service never verified
  (malformed wire bytes, oversize programs, bad ctx sizes — see
  :mod:`repro.api.ingest`).
* ``GET /verdict/<canonical_hash>[?ctx_size=N]`` — cached verdict or a
  structured 404.
* ``GET /healthz`` — liveness probe.
* ``GET /stats`` — JSON: service counters (requests, verifications,
  single-flight inflight, cache hits/misses/evictions) plus the obs
  registry snapshot when observability is enabled.
* ``GET /metrics`` — Prometheus text: ``repro_api_*`` service counters
  always, plus the full obs registry when observability is enabled.

Every error body is JSON: ``{"schema_version": 1, "error": {"code":
..., "message": ...}}`` — clients switch on ``code``, never on prose.
Under pressure the server degrades structurally instead of collapsing
(see ``docs/resilience.md``): a full work queue answers **503**
(``overloaded``, with a ``Retry-After`` header), a request that outlives
the service deadline answers **504** (``deadline-exceeded``), stalled
client sockets are timed out, and ``/healthz`` stays live throughout —
it never touches the verification pool.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro import obs as _obs
from repro.obs.server import ThreadingHTTPServer

from .ingest import MAX_WIRE_BYTES, IngestError, parse_ctx_size
from .models import (
    API_SCHEMA_VERSION,
    VerifyRequest,
    error_payload,
    faults_echo,
)
from .service import DeadlineExceeded, ServiceOverloaded, VerificationService

__all__ = ["ApiServer", "MAX_BODY_BYTES", "DEFAULT_SOCKET_TIMEOUT_S"]

#: Request bodies past this cannot contain an acceptable program (hex
#: doubles the wire bytes; the rest is JSON framing).
MAX_BODY_BYTES = 4 * MAX_WIRE_BYTES + 4096

#: Per-connection socket timeout: a client that stops sending (or
#: reading) cannot pin a handler thread forever.
DEFAULT_SOCKET_TIMEOUT_S = 30.0


class ApiServer:
    """Serve a :class:`VerificationService` over HTTP on a daemon thread."""

    def __init__(
        self,
        service: VerificationService,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_timeout_s: float = DEFAULT_SOCKET_TIMEOUT_S,
    ) -> None:
        self.service = service
        self._host = host
        self._requested_port = port
        self._socket_timeout_s = socket_timeout_s
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ----------------------------------------------------------

    @property
    def port(self) -> int:
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    def start(self) -> "ApiServer":
        service = self.service
        socket_timeout_s = self._socket_timeout_s

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # Keep-alive replies go out as two writes (headers, body); with
            # Nagle on, the body waits ~40 ms for the client's delayed ACK.
            disable_nagle_algorithm = True
            # http.server applies this to the connection socket: a stalled
            # client trips it and the handler thread is reclaimed.
            timeout = socket_timeout_s

            def do_POST(self) -> None:  # noqa: N802 - http.server API
                path, query = _split(self.path)
                if path != "/verify":
                    self._error(404, "not-found", f"no such route: {path}")
                    return
                try:
                    request = self._parse_verify(query)
                except IngestError as exc:
                    service.note_rejection()
                    self._error(exc.status, exc.code, exc.message)
                    return
                try:
                    verdict = service.verify(request)
                except ServiceOverloaded as exc:
                    # Load shed: structured, with a drain estimate — the
                    # request cost nothing, the client knows when to come
                    # back, and the service never queues unboundedly.
                    self._error(
                        503, "overloaded", str(exc),
                        headers={"Retry-After": str(exc.retry_after_s)},
                    )
                    return
                except DeadlineExceeded as exc:
                    self._error(504, "deadline-exceeded", str(exc))
                    return
                except Exception as exc:  # never a traceback on the wire
                    self._error(500, "internal-error", str(exc))
                    return
                self._json(200, verdict.to_payload())

            def do_GET(self) -> None:  # noqa: N802 - http.server API
                path, query = _split(self.path)
                try:
                    if path == "/healthz":
                        self._json(200, service.healthz())
                    elif path == "/stats":
                        self._json(200, _stats_payload(service))
                    elif path == "/metrics":
                        self._text(200, _metrics_payload(service),
                                   "text/plain; version=0.0.4")
                    elif path.startswith("/verdict/"):
                        self._get_verdict(path, query)
                    else:
                        self._error(404, "not-found",
                                    f"no such route: {path}")
                except IngestError as exc:
                    self._error(exc.status, exc.code, exc.message)
                except Exception as exc:
                    self._error(500, "internal-error", str(exc))

            # -- route helpers ------------------------------------------

            def _parse_verify(self, query: Dict[str, str]) -> VerifyRequest:
                length_header = self.headers.get("Content-Length")
                try:
                    length = int(length_header or "")
                    if length < 0:   # rfile.read(-1) blocks until EOF
                        raise ValueError(length)
                except ValueError:
                    raise IngestError(
                        400, "missing-body",
                        "POST /verify requires a Content-Length body",
                    ) from None
                if length > MAX_BODY_BYTES:
                    raise IngestError(
                        422, "program-too-large",
                        f"request body is {length} bytes; the limit is "
                        f"{MAX_BODY_BYTES}",
                    )
                body = self.rfile.read(length)
                ctype = (self.headers.get("Content-Type") or "").split(";")[0]
                ctype = ctype.strip().lower()
                if ctype in ("application/octet-stream",
                             "application/x-bpf"):
                    return VerifyRequest.from_wire(
                        body, query,
                        default_ctx_size=service.default_ctx_size,
                    )
                try:
                    payload = json.loads(body.decode("utf-8"))
                except (UnicodeDecodeError, ValueError) as exc:
                    raise IngestError(
                        400, "bad-json", f"request body is not JSON: {exc}"
                    ) from exc
                return VerifyRequest.from_json_payload(
                    payload, default_ctx_size=service.default_ctx_size
                )

            def _get_verdict(self, path: str, query: Dict[str, str]) -> None:
                chash = path[len("/verdict/"):]
                if not chash or "/" in chash:
                    raise IngestError(
                        400, "bad-hash",
                        "expected /verdict/<canonical_hash>",
                    )
                ctx_size = parse_ctx_size(
                    query.get("ctx_size"),
                    default=service.default_ctx_size,
                )
                verdict = service.lookup(chash, ctx_size)
                if verdict is None:
                    self._error(
                        404, "unknown-verdict",
                        f"no cached verdict for {chash} at "
                        f"ctx_size={ctx_size}",
                    )
                    return
                self._json(200, verdict.to_payload())

            # -- response helpers ---------------------------------------

            def _json(
                self,
                code: int,
                payload: Dict,
                headers: Optional[Dict[str, str]] = None,
            ) -> None:
                self._text(
                    code,
                    json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    "application/json",
                    headers=headers,
                )

            def _error(
                self,
                code: int,
                error_code: str,
                message: str,
                headers: Optional[Dict[str, str]] = None,
            ) -> None:
                self._json(
                    code, error_payload(error_code, message), headers=headers
                )

            def _text(
                self,
                code: int,
                body: str,
                ctype: str,
                headers: Optional[Dict[str, str]] = None,
            ) -> None:
                data = body.encode("utf-8")
                self.send_response(code)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(data)))
                for name, value in (headers or {}).items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, fmt: str, *args: object) -> None:
                pass  # request logs go through obs, not stderr

        self._httpd = ThreadingHTTPServer(
            (self._host, self._requested_port), Handler
        )
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-api-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


def _split(raw_path: str) -> Tuple[str, Dict[str, str]]:
    parts = urlsplit(raw_path)
    return parts.path, dict(parse_qsl(parts.query))


def _stats_payload(service: VerificationService) -> Dict:
    payload: Dict = {
        "schema_version": API_SCHEMA_VERSION,
        "service": service.stats(),
    }
    echo = faults_echo()
    if echo is not None:
        payload["faults"] = echo
    if _obs.enabled():
        payload["metrics"] = _obs.default_registry().to_dict()
    return payload


def _metrics_payload(service: VerificationService) -> str:
    """``repro_api_*`` counters, plus the obs registry when enabled."""
    stats = service.stats()
    cache = stats["cache"]
    lines = []
    for name, value in (
        ("repro_api_requests_total", stats["requests"]),
        ("repro_api_verifications_total", stats["verifications"]),
        ("repro_api_rejections_total", stats["rejections"]),
        ("repro_api_shed_total", stats["shed"]),
        ("repro_api_timeouts_total", stats["timeouts"]),
        ("repro_api_cache_hits_total", cache["hits"]),
        ("repro_api_cache_misses_total", cache["misses"]),
        ("repro_api_cache_evictions_total", cache["evictions"]),
    ):
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {value}")
    lines.append("# TYPE repro_api_cache_entries gauge")
    lines.append(f"repro_api_cache_entries {cache['entries']}")
    body = "\n".join(lines) + "\n"
    if _obs.enabled():
        body += _obs.default_registry().render_prometheus()
    return body
