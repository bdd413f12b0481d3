"""HTTP front end for the distributed-campaign coordinator.

The same :mod:`repro.httpd` substrate as :class:`~repro.api.server.
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

from typing import Dict

from repro import obs as _obs
from repro.fuzz.dist.coordinator import Coordinator
from repro.httpd import (
    BackgroundServer,
    HttpError,
    JsonHandler,
    ThreadingHTTPServer,
    parse_json,
)

from .models import with_faults

__all__ = ["CoordinatorApi", "MAX_RESULT_BODY_BYTES"]

#: Result bodies carry a whole batch of per-program telemetry; cap them
#: well above any realistic batch, but below "a client is streaming us
#: garbage".
MAX_RESULT_BODY_BYTES = 64 * 1024 * 1024


class CoordinatorApi(BackgroundServer):
    """Serve a :class:`Coordinator` over HTTP on a daemon thread."""

    def __init__(
        self,
        coordinator: Coordinator,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(host, port)
        self.coordinator = coordinator

    def start(self) -> "CoordinatorApi":
        class Handler(_Routes):
            coordinator = self.coordinator

        self._serve(ThreadingHTTPServer(self.address, Handler),
                    "repro-dist-http")
        return self


class _Routes(JsonHandler):
    coordinator: Coordinator

    def _lease(self) -> Dict:
        payload = self._read_object()
        worker = payload.get("worker")
        if not isinstance(worker, str) or not worker:
            raise HttpError(
                400, "missing-worker",
                "POST /lease requires a non-empty worker name",
            )
        self._check_campaign(payload)
        return self.coordinator.lease(worker)

    def _result(self) -> Dict:
        payload = self._read_object()
        self._check_campaign(payload)
        if not isinstance(payload.get("fingerprint"), str):
            raise HttpError(
                400, "missing-fingerprint",
                "POST /result requires the granted batch fingerprint",
            )
        return self.coordinator.ingest(payload)

    def _healthz(self) -> Dict:
        return with_faults({
            "status": "ok",
            "campaign_id": self.coordinator.cid,
            "finished": self.coordinator.finished,
        })

    def _stats(self) -> Dict:
        payload = with_faults(self.coordinator.stats_payload())
        if _obs.enabled():
            payload["metrics"] = _obs.default_registry().to_dict()
        return payload

    def _check_campaign(self, payload: Dict) -> None:
        cid = payload.get("campaign_id")
        if cid is not None and cid != self.coordinator.cid:
            raise HttpError(
                409, "wrong-campaign",
                f"this coordinator runs campaign {self.coordinator.cid}, "
                f"not {cid}",
            )

    def _read_object(self) -> Dict:
        payload = parse_json(
            self.read_body(MAX_RESULT_BODY_BYTES, "body-too-large")
        )
        if not isinstance(payload, dict):
            raise HttpError(400, "bad-json", "request body must be an object")
        return payload

    routes = {
        "/lease": {"POST": _lease},
        "/result": {"POST": _result},
        "/round": {"GET": lambda self: self.coordinator.round_info()},
        "/healthz": {"GET": _healthz},
        "/stats": {"GET": _stats},
    }
