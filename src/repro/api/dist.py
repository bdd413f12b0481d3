"""HTTP front end for the distributed-campaign coordinator.

Same stdlib ``ThreadingHTTPServer`` idiom as :class:`~repro.api.server.
ApiServer`, serving a :class:`~repro.fuzz.dist.coordinator.Coordinator`
(``repro coordinate``).  Routes:

* ``POST /lease`` — ``{"worker": name}`` in; a batch grant, a ``wait``
  hint, or ``{"done": true}`` out.  The grant carries the batch
  fingerprint the result must report under.
* ``POST /result`` — one batch's results (or a soft-error report) in;
  an idempotency status out (``accepted`` / ``duplicate`` / ``stale``
  / ``retrying`` / ``quarantined``) — always **200**: a duplicate or
  stale report is a *correctly handled* protocol event, not a client
  error.
* ``GET /round`` — the campaign spec and the current round's
  mutation-seed pool (workers refetch per round).
* ``GET /healthz`` — liveness, plus the armed fault plan when chaos is
  on (same echo contract as ``repro serve``).
* ``GET /stats`` — ledger/worker/counter snapshot, fault-plan echo,
  and the obs registry when observability is enabled.

A request naming a different ``campaign_id`` answers a structured
**409** (``wrong-campaign``): a worker pointed at the wrong coordinator
must fail loudly, never merge.  Every error body is the repo-wide
``{"schema_version": 1, "error": {...}}`` envelope.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler
from typing import Dict, Optional

from repro import obs as _obs
from repro.fuzz.dist.coordinator import Coordinator
from repro.obs.server import ThreadingHTTPServer

from .models import error_payload, faults_echo

__all__ = ["CoordinatorApi", "MAX_RESULT_BODY_BYTES"]

#: Result bodies carry a whole batch of per-program telemetry; cap them
#: well above any realistic batch, but below "a client is streaming us
#: garbage".
MAX_RESULT_BODY_BYTES = 64 * 1024 * 1024


class CoordinatorApi:
    """Serve a :class:`Coordinator` over HTTP on a daemon thread."""

    def __init__(
        self,
        coordinator: Coordinator,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_timeout_s: float = 30.0,
    ) -> None:
        self.coordinator = coordinator
        self._host = host
        self._requested_port = port
        self._socket_timeout_s = socket_timeout_s
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    def start(self) -> "CoordinatorApi":
        coordinator = self.coordinator
        socket_timeout_s = self._socket_timeout_s

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # Keep-alive replies go out as two writes (headers, body); with
            # Nagle on, the body waits ~40 ms for the client's delayed ACK.
            disable_nagle_algorithm = True
            timeout = socket_timeout_s

            def do_POST(self) -> None:  # noqa: N802 - http.server API
                try:
                    if self.path == "/lease":
                        self._post_lease()
                    elif self.path == "/result":
                        self._post_result()
                    else:
                        self._error(404, "not-found",
                                    f"no such route: {self.path}")
                except _BadRequest as exc:
                    self._error(exc.status, exc.code, exc.message)
                except Exception as exc:  # never a traceback on the wire
                    self._error(500, "internal-error", str(exc))

            def do_GET(self) -> None:  # noqa: N802 - http.server API
                try:
                    if self.path == "/round":
                        self._json(200, coordinator.round_info())
                    elif self.path == "/healthz":
                        payload = {
                            "status": "ok",
                            "campaign_id": coordinator.cid,
                            "finished": coordinator.finished,
                        }
                        echo = faults_echo()
                        if echo is not None:
                            payload["faults"] = echo
                        self._json(200, payload)
                    elif self.path == "/stats":
                        payload = coordinator.stats_payload()
                        echo = faults_echo()
                        if echo is not None:
                            payload["faults"] = echo
                        if _obs.enabled():
                            payload["metrics"] = (
                                _obs.default_registry().to_dict()
                            )
                        self._json(200, payload)
                    else:
                        self._error(404, "not-found",
                                    f"no such route: {self.path}")
                except Exception as exc:
                    self._error(500, "internal-error", str(exc))

            # -- route handlers -----------------------------------------

            def _post_lease(self) -> None:
                payload = self._read_json()
                worker = payload.get("worker")
                if not isinstance(worker, str) or not worker:
                    raise _BadRequest(
                        400, "missing-worker",
                        "POST /lease requires a non-empty worker name",
                    )
                self._check_campaign(payload)
                self._json(200, coordinator.lease(worker))

            def _post_result(self) -> None:
                payload = self._read_json()
                self._check_campaign(payload)
                if not isinstance(payload.get("fingerprint"), str):
                    raise _BadRequest(
                        400, "missing-fingerprint",
                        "POST /result requires the granted batch "
                        "fingerprint",
                    )
                self._json(200, coordinator.ingest(payload))

            def _check_campaign(self, payload: Dict) -> None:
                cid = payload.get("campaign_id")
                if cid is not None and cid != coordinator.cid:
                    raise _BadRequest(
                        409, "wrong-campaign",
                        f"this coordinator runs campaign "
                        f"{coordinator.cid}, not {cid}",
                    )

            def _read_json(self) -> Dict:
                try:
                    length = int(self.headers.get("Content-Length") or "")
                    if length < 0:   # rfile.read(-1) blocks until EOF
                        raise ValueError(length)
                except ValueError:
                    raise _BadRequest(
                        400, "missing-body",
                        "POST requires a Content-Length body",
                    ) from None
                if length > MAX_RESULT_BODY_BYTES:
                    raise _BadRequest(
                        422, "body-too-large",
                        f"request body is {length} bytes; the limit is "
                        f"{MAX_RESULT_BODY_BYTES}",
                    )
                body = self.rfile.read(length)
                try:
                    payload = json.loads(body.decode("utf-8"))
                except (UnicodeDecodeError, ValueError) as exc:
                    raise _BadRequest(
                        400, "bad-json",
                        f"request body is not JSON: {exc}",
                    ) from exc
                if not isinstance(payload, dict):
                    raise _BadRequest(
                        400, "bad-json", "request body must be an object"
                    )
                return payload

            # -- response helpers ---------------------------------------

            def _json(self, code: int, payload: Dict) -> None:
                data = (
                    json.dumps(payload, sort_keys=True) + "\n"
                ).encode("utf-8")
                self.send_response(code)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def _error(self, code: int, error_code: str, message: str) -> None:
                self._json(code, error_payload(error_code, message))

            def log_message(self, fmt: str, *args: object) -> None:
                pass  # request logs go through obs, not stderr

        self._httpd = ThreadingHTTPServer(
            (self._host, self._requested_port), Handler
        )
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-dist-http",
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


class _BadRequest(Exception):
    """A request the coordinator never saw: status + structured code."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
