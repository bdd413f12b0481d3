"""Live stats endpoint: a background ``http.server`` thread.

Serves two routes from the standard library only:

* ``GET /metrics`` — the registry in Prometheus text exposition format;
* ``GET /stats``   — JSON: the latest heartbeat snapshot (with a
  ``stale`` warning field when the publisher looks dead) plus the
  registry snapshot.

The server binds ``127.0.0.1`` by default — this is an operator
diagnostic port, not a public API — and ``port=0`` picks an ephemeral
port, exposed via :attr:`StatsServer.port` after :meth:`start`.
Serving runs on a daemon thread, so a crashed campaign never hangs on
its own diagnostics.
"""

from __future__ import annotations

import http.server
import json
import threading
from http.server import BaseHTTPRequestHandler
from pathlib import Path
from typing import Callable, Dict, Optional

from .heartbeat import read_heartbeat, staleness_warning
from .metrics import Registry

__all__ = ["StatsServer", "ThreadingHTTPServer"]


class ThreadingHTTPServer(http.server.ThreadingHTTPServer):
    """The stdlib server with the settings every repro server shares.

    The stdlib listen backlog of 5 drops connection bursts: a few dozen
    clients connecting at once see SYN retries of a second or more.
    Handler threads are daemons, so a stalled client never holds up
    process exit.
    """

    request_queue_size = 128
    daemon_threads = True


class StatsServer:
    """Serve ``/metrics`` and ``/stats`` for a registry + obs directory.

    ``registry_fn`` is called per request so the live (mutating)
    registry is always what renders; ``obs_dir`` (optional) supplies the
    heartbeat file the ``/stats`` payload embeds.
    """

    def __init__(
        self,
        registry_fn: Callable[[], Registry],
        obs_dir: Optional["str | Path"] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._registry_fn = registry_fn
        self._obs_dir = Path(obs_dir) if obs_dir is not None else None
        self._host = host
        self._requested_port = port
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

    def start(self) -> "StatsServer":
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                if self.path.split("?", 1)[0] == "/metrics":
                    body = server._registry_fn().render_prometheus()
                    self._reply(200, body, "text/plain; version=0.0.4")
                elif self.path.split("?", 1)[0] == "/stats":
                    body = json.dumps(
                        server.stats_payload(), indent=2, sort_keys=True
                    ) + "\n"
                    self._reply(200, body, "application/json")
                else:
                    self._reply(404, "not found\n", "text/plain")

            def _reply(self, code: int, body: str, ctype: str) -> None:
                data = body.encode("utf-8")
                self.send_response(code)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, fmt: str, *args: object) -> None:
                pass  # diagnostics must not spam the campaign's stdout

        self._httpd = ThreadingHTTPServer(
            (self._host, self._requested_port), Handler
        )
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-obs-stats",
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

    # -- payloads -----------------------------------------------------------

    def stats_payload(self) -> Dict:
        payload: Dict = {"metrics": self._registry_fn().to_dict()}
        heartbeat_path = (
            self._obs_dir / "heartbeat.json"
            if self._obs_dir is not None
            else None
        )
        if heartbeat_path is not None and heartbeat_path.exists():
            try:
                heartbeat = read_heartbeat(heartbeat_path)
            except (ValueError, OSError) as exc:
                payload["heartbeat_error"] = str(exc)
            else:
                payload["heartbeat"] = heartbeat
                warning = staleness_warning(heartbeat)
                if warning:
                    payload["stale"] = warning
        return payload
