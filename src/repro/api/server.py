"""The HTTP front end: the service's routes on :mod:`repro.httpd`.

Same substrate as :class:`repro.obs.server.StatsServer` and the dist
coordinator: a daemon-threaded stdlib ``http.server`` bound to
``127.0.0.1`` by default, ``port=0`` picks an ephemeral port.  Routes:

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

Every error body is the substrate's JSON envelope (``{"schema_version":
1, "error": {"code": ..., "message": ...}}``) — clients switch on
``code``, never on prose.  Under pressure the server degrades
structurally instead of collapsing (see ``docs/resilience.md``): a full
work queue answers **503** (``overloaded``, with a ``Retry-After``
header), a request that outlives the service deadline answers **504**
(``deadline-exceeded``), stalled client sockets are timed out, and
``/healthz`` stays live throughout — it never touches the verification
pool.
"""

from __future__ import annotations

from typing import Dict

from repro import obs as _obs
from repro.httpd import (
    BackgroundServer,
    HttpError,
    JsonHandler,
    ThreadingHTTPServer,
    parse_json,
)

from .ingest import MAX_WIRE_BYTES, IngestError, parse_ctx_size
from .models import API_SCHEMA_VERSION, VerifyRequest, with_faults
from .service import DeadlineExceeded, ServiceOverloaded, VerificationService

__all__ = ["ApiServer", "MAX_BODY_BYTES"]

#: Request bodies past this cannot contain an acceptable program (hex
#: doubles the wire bytes; the rest is JSON framing).
MAX_BODY_BYTES = 4 * MAX_WIRE_BYTES + 4096


class ApiServer(BackgroundServer):
    """Serve a :class:`VerificationService` over HTTP on a daemon thread."""

    def __init__(
        self,
        service: VerificationService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(host, port)
        self.service = service

    def start(self) -> "ApiServer":
        class Handler(_Routes):
            service = self.service

        self._serve(ThreadingHTTPServer(self.address, Handler),
                    "repro-api-http")
        return self


class _Routes(JsonHandler):
    service: VerificationService

    def _verify(self) -> Dict:
        try:
            request = self._parse_verify()
        except HttpError:
            self.service.note_rejection()
            raise
        try:
            verdict = self.service.verify(request)
        except ServiceOverloaded as exc:
            # Load shed: structured, with a drain estimate — the request
            # cost nothing, the client knows when to come back, and the
            # service never queues unboundedly.
            raise HttpError(
                503, "overloaded", str(exc),
                headers={"Retry-After": str(exc.retry_after_s)},
            ) from None
        except DeadlineExceeded as exc:
            raise HttpError(504, "deadline-exceeded", str(exc)) from None
        return verdict.to_payload()

    def _parse_verify(self) -> VerifyRequest:
        body = self.read_body(MAX_BODY_BYTES, "program-too-large")
        default = self.service.default_ctx_size
        ctype = (self.headers.get("Content-Type") or "").split(";")[0]
        if ctype.strip().lower() in ("application/octet-stream",
                                     "application/x-bpf"):
            return VerifyRequest.from_wire(
                body, self.query, default_ctx_size=default
            )
        return VerifyRequest.from_json_payload(
            parse_json(body), default_ctx_size=default
        )

    def _verdict(self) -> Dict:
        chash = self.url_path[len("/verdict/"):]
        if not chash or "/" in chash:
            raise IngestError(
                400, "bad-hash", "expected /verdict/<canonical_hash>"
            )
        ctx_size = parse_ctx_size(
            self.query.get("ctx_size"), default=self.service.default_ctx_size
        )
        verdict = self.service.lookup(chash, ctx_size)
        if verdict is None:
            raise HttpError(
                404, "unknown-verdict",
                f"no cached verdict for {chash} at ctx_size={ctx_size}",
            )
        return verdict.to_payload()

    routes = {
        "/verify": {"POST": _verify},
        "/verdict/": {"GET": _verdict},
        "/healthz": {"GET": lambda self: self.service.healthz()},
        "/stats": {"GET": lambda self: _stats_payload(self.service)},
        "/metrics": {"GET": lambda self: _metrics_payload(self.service)},
    }


def _stats_payload(service: VerificationService) -> Dict:
    payload = with_faults({
        "schema_version": API_SCHEMA_VERSION,
        "service": service.stats(),
    })
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
