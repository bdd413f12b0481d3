"""The HTTP substrate shared by every repro server.

``repro serve`` (:mod:`repro.api.server`), ``repro coordinate``
(:mod:`repro.api.dist`) and the obs stats endpoint
(:mod:`repro.obs.server`) differ only in their routes.  The rest lives
here once: the stdlib server settings, a handler that routes by path and
method and answers every error with one JSON envelope, and a
background-thread lifecycle.  The contract is documented in
``docs/service.md``.  This module imports nothing from ``repro``, so
the obs layer and the API can both stand on it.
"""

from __future__ import annotations

import http.server
import json
import sys
import threading
from http import HTTPStatus
from typing import Any, Callable, Dict, Optional, Tuple, Union
from urllib.parse import parse_qsl, urlsplit

__all__ = [
    "BackgroundServer", "HttpError", "JsonHandler", "SCHEMA_VERSION",
    "SOCKET_TIMEOUT_S", "ThreadingHTTPServer", "error_payload", "parse_json",
]

#: Version of the error envelope (and of the API payloads built on it).
SCHEMA_VERSION = 1

#: Per-connection socket timeout: a client that stops sending (or
#: reading) cannot pin a handler thread forever.
SOCKET_TIMEOUT_S = 30.0


def error_payload(code: str, message: str) -> dict:
    """The one structured error shape every HTTP surface renders.

    Clients switch on ``error.code``, never on prose — 503 (shed), 504
    (deadline), 500 and every 4xx all share this envelope.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "error": {"code": code, "message": message},
    }


class HttpError(Exception):
    """A request answered with a structured error instead of a result.

    ``status`` is the HTTP status, ``code`` a stable kebab-case
    identifier clients switch on, ``headers`` extra reply headers (a
    503's ``Retry-After``).
    """

    def __init__(self, status: int, code: str, message: str,
                 headers: Optional[Dict[str, str]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.headers = headers or {}


def parse_json(body: bytes) -> Any:
    """Decode a JSON request body, or a 400 ``bad-json``."""
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise HttpError(
            400, "bad-json", f"request body is not JSON: {exc}"
        ) from exc


class ThreadingHTTPServer(http.server.ThreadingHTTPServer):
    """The stdlib server with the settings every repro server shares.

    The stdlib listen backlog of 5 drops connection bursts: a few dozen
    clients connecting at once see SYN retries of a second or more.
    Handler threads are daemons, so a stalled client never holds up
    process exit.  A client that resets or stalls between or inside
    requests ends its connection without a traceback on stderr.
    """

    request_queue_size = 128
    daemon_threads = True

    def handle_error(self, request, client_address) -> None:
        if isinstance(sys.exc_info()[1], (ConnectionError, TimeoutError)):
            return   # the client went away; nothing to report
        super().handle_error(request, client_address)


#: A route reads the request off the handler and returns the body of a
#: 200 reply: a dict is sent as JSON, a str as Prometheus text.
Route = Callable[[Any], Union[dict, str]]


class JsonHandler(http.server.BaseHTTPRequestHandler):
    """Route requests by path and method; answer errors structurally.

    Subclasses fill in :attr:`routes`.  An unknown path answers 404, a
    known path with the wrong method 405 with ``Allow``, an
    :class:`HttpError` its own status and any other exception 500 —
    never a traceback.  Routes read the split request target from
    :attr:`url_path` and :attr:`query`.
    """

    protocol_version = "HTTP/1.1"
    # Keep-alive replies go out as two writes (headers, body); with
    # Nagle on, the body waits ~40 ms for the client's delayed ACK.
    disable_nagle_algorithm = True
    # http.server applies this to the connection socket: a stalled
    # client trips it and the handler thread is reclaimed.
    timeout = SOCKET_TIMEOUT_S

    #: ``{path: {method: route}}``; a path ending in ``/`` also matches
    #: every path below it.
    routes: Dict[str, Dict[str, Route]] = {}

    url_path = ""
    query: Dict[str, str] = {}
    #: the request declared a body no route read; it would parse as the
    #: next request, so the reply closes the connection.
    _close_after_reply = False

    def _dispatch(self) -> None:
        parts = urlsplit(self.path)
        self.url_path, self.query = parts.path, dict(parse_qsl(parts.query))
        length = (self.headers.get("Content-Length") or "0").strip()
        self._close_after_reply = (
            length != "0" or "Transfer-Encoding" in self.headers
        )
        try:
            methods = self._methods(self.url_path)
            if self.command not in methods:
                allow = ", ".join(sorted(methods))
                raise HttpError(
                    405, "method-not-allowed",
                    f"{self.command} is not allowed on {self.url_path}; "
                    f"use {allow}",
                    headers={"Allow": allow},
                )
            reply = methods[self.command](self)
            if isinstance(reply, str):
                self.send_text(200, reply, "text/plain; version=0.0.4")
            else:
                self.send_json(200, reply)
        except HttpError as exc:
            self.send_json(exc.status, error_payload(exc.code, exc.message),
                           exc.headers)
        except (ConnectionError, TimeoutError):
            self.close_connection = True   # the client is gone or stalled
        except Exception as exc:  # never a traceback on the wire
            self.send_json(500, error_payload("internal-error", str(exc)))

    do_GET = do_POST = do_PUT = do_DELETE = do_PATCH = _dispatch

    def _methods(self, path: str) -> Dict[str, Route]:
        for prefix, methods in self.routes.items():
            if path == prefix or (prefix.endswith("/")
                                  and path.startswith(prefix)):
                return methods
        raise HttpError(404, "not-found", f"no such route: {path}")

    def read_body(self, limit: int, too_large_code: str) -> bytes:
        """The request body: 400 without a usable ``Content-Length``,
        422 ``too_large_code`` past ``limit`` bytes."""
        try:
            length = int(self.headers.get("Content-Length") or "")
            if length < 0:   # rfile.read(-1) blocks until EOF
                raise ValueError(length)
        except ValueError:
            raise HttpError(
                400, "missing-body",
                f"{self.command} {self.url_path} requires a Content-Length "
                f"body",
            ) from None
        if length > limit:
            raise HttpError(
                422, too_large_code,
                f"request body is {length} bytes; the limit is {limit}",
            )
        self._close_after_reply = False
        return self.rfile.read(length)

    def send_json(self, status: int, payload: dict,
                  headers: Optional[Dict[str, str]] = None) -> None:
        self.send_text(
            status, json.dumps(payload, indent=2, sort_keys=True) + "\n",
            "application/json", headers,
        )

    def send_text(self, status: int, body: str, content_type: str,
                  headers: Optional[Dict[str, str]] = None) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self._close_after_reply:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """Errors http.server answers itself (a malformed request line,
        oversize headers, an unknown method) keep the envelope too."""
        self._close_after_reply = True
        phrase = HTTPStatus(code).phrase
        self.send_json(code, error_payload(
            phrase.lower().replace(" ", "-"), message or phrase
        ))

    def log_message(self, fmt: str, *args: Any) -> None:
        pass  # request logs go through obs, not stderr


class BackgroundServer:
    """``port``/``url``/``stop()`` for a server run on a daemon thread.

    A subclass's ``start()`` constructs its server on :attr:`address`
    and hands it to :meth:`_serve`.  ``port=0`` picks an ephemeral
    port, readable from :attr:`port` once started.
    """

    def __init__(self, host: str, port: int) -> None:
        self.address: Tuple[str, int] = (host, port)
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        if self._httpd is None:
            return self.address[1]
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.address[0]}:{self.port}"

    def _serve(self, httpd: ThreadingHTTPServer, name: str) -> None:
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever, name=name, daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
