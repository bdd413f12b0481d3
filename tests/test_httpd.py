"""The shared HTTP contract, held by all three servers on any input.

Whatever the method, path, query or body, ``repro serve``, ``repro
coordinate`` and the obs stats endpoint answer with a status from a
fixed set — never a 500 — and every non-2xx body is the structured
``{"schema_version": 1, "error": {"code", "message"}}`` envelope.
"""

import http.client
import json
import socket
import struct
import threading
import urllib.parse

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ApiServer, VerificationService
from repro.api.dist import CoordinatorApi
from repro.fuzz.campaign import CampaignSpec
from repro.fuzz.dist import Coordinator
from repro.httpd import JsonHandler, ThreadingHTTPServer
from repro.obs import Registry, StatsServer

ALLOWED = {200, 400, 404, 405, 409, 422, 503, 504}

#: mov r0, 0 ; exit — the smallest accepted program, as hex.
GOOD_HEX = "b700000000000000" "9500000000000000"

ROUTES = {
    "service": ["/verify", "/verdict/" + "0" * 64, "/verdict/", "/healthz",
                "/stats", "/metrics"],
    "coordinator": ["/lease", "/result", "/round", "/healthz", "/stats"],
    "stats": ["/metrics", "/stats"],
}


@pytest.fixture
def running(request, tmp_path):
    kind = request.param
    closers = []
    if kind == "service":
        service = VerificationService(workers=1)
        server = ApiServer(service).start()
        closers.append(service.close)
    elif kind == "coordinator":
        spec = CampaignSpec(workers=1, budget=4, rounds=1, seed=7,
                            max_insns=6, inputs_per_program=2, shrink=False)
        server = CoordinatorApi(Coordinator(spec, tmp_path / "state")).start()
    else:
        registry = Registry()
        registry.counter("oracle.programs").inc(3)
        server = StatsServer(lambda: registry, obs_dir=tmp_path).start()
    yield kind, server
    server.stop()
    for close in closers:
        close()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)

#: Objects naming the fields the routes read, with plausible or hostile
#: values, so the property reaches past the first validation step.
requests_json = st.fixed_dictionaries({}, optional={
    "program_hex": st.sampled_from([GOOD_HEX, "zz", ""]) | json_values,
    "ctx_size": st.sampled_from([64, -1, "8"]) | json_values,
    "states": json_values,
    "precision": json_values,
    "worker": st.sampled_from(["w1", ""]) | json_values,
    "campaign_id": json_values,
    "fingerprint": st.text(max_size=8) | json_values,
    "ok": json_values,
    "results": json_values,
})

bodies = st.one_of(
    st.none(),
    st.binary(max_size=64),
    (json_values | requests_json).map(lambda v: json.dumps(v).encode()),
)

segments = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-._~%", max_size=10
)
queries = st.dictionaries(
    st.sampled_from(["ctx_size", "states", "precision", "x"]),
    st.text(alphabet="0123456789abcdef-", max_size=4), max_size=2,
)


@pytest.mark.parametrize("running", sorted(ROUTES), indirect=True)
def test_no_500_on_any_request(running):
    kind, server = running
    url = urllib.parse.urlsplit(server.url)
    paths = st.sampled_from(ROUTES[kind]) | segments.map(lambda s: "/" + s)

    @settings(max_examples=40, deadline=None)
    @given(
        method=st.sampled_from(["GET", "POST", "PUT", "DELETE"]),
        path=paths,
        query=queries,
        body=bodies,
        ctype=st.sampled_from(["application/json",
                               "application/octet-stream", None]),
    )
    def check(method, path, query, body, ctype):
        target = path + ("?" + urllib.parse.urlencode(query) if query else "")
        headers = {"Content-Type": ctype} if ctype else {}
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
        try:
            conn.request(method, target, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        assert response.status in ALLOWED, (response.status, data)
        if response.status >= 300:
            payload = json.loads(data)
            assert payload["schema_version"] == 1
            error = payload["error"]
            assert isinstance(error["code"], str), payload
            assert isinstance(error["message"], str), payload

    check()


@pytest.mark.parametrize("running", ["service"], indirect=True)
def test_unread_body_closes_the_connection(running):
    # A body no route read must not be parsed as the next request on a
    # keep-alive connection: the reply closes the connection instead.
    _, server = running
    received = _exchange(server,
        b"POST /nope HTTP/1.1\r\nHost: test\r\n"
        b"Content-Length: 9\r\n\r\nGET /oops"
        b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"
    )
    head, _, body = received.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 404 ")
    assert b"\r\nConnection: close" in head
    assert json.loads(body)["error"]["code"] == "not-found"


def _exchange(server, raw: bytes) -> bytes:
    """Send ``raw`` on a fresh connection; everything until it closes."""
    url = urllib.parse.urlsplit(server.url)
    with socket.create_connection((url.hostname, url.port),
                                  timeout=5) as sock:
        sock.sendall(raw)
        received = b""
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                return received
            received += chunk


@pytest.mark.parametrize("running", ["stats"], indirect=True)
@pytest.mark.parametrize("raw, status, code", [
    (b"GET /stats extra HTTP/1.1\r\nHost: test\r\n\r\n", 400,
     "bad-request"),
    (b"OPTIONS /stats HTTP/1.1\r\nHost: test\r\n\r\n", 501,
     "not-implemented"),
])
def test_errors_raised_by_http_server_keep_the_envelope(
    running, raw, status, code
):
    _, server = running
    head, _, body = _exchange(server, raw).partition(b"\r\n\r\n")
    assert head.startswith(f"HTTP/1.1 {status} ".encode())
    assert b"\r\nContent-Type: application/json" in head
    assert json.loads(body)["error"]["code"] == code


@pytest.mark.parametrize("running", ["service"], indirect=True)
def test_stalled_body_is_dropped_not_answered(running, monkeypatch):
    # The client stops mid-body: the socket timeout reclaims the handler
    # and, with nobody left to read it, no 500 goes out.
    monkeypatch.setattr(JsonHandler, "timeout", 0.2)
    _, server = running
    assert _exchange(server,
        b"POST /verify HTTP/1.1\r\nHost: test\r\n"
        b"Content-Type: application/json\r\nContent-Length: 10\r\n\r\n{}"
    ) == b""


class _Ping(JsonHandler):
    routes = {"/ping": {"GET": lambda handler: {"ok": True}}}


@pytest.mark.parametrize("sent", [
    b"GET /ping HTTP/1.1\r\nHost: test\r\n\r\n",   # then idle keep-alive
    b"GET /pi",                                     # inside the request line
], ids=["after-a-request", "mid-request-line"])
def test_client_reset_prints_no_traceback(sent, capsys):
    # A keep-alive client that vanishes with an RST is routine: the
    # server drops the connection without a traceback on stderr.
    closed = threading.Event()

    class Server(ThreadingHTTPServer):
        def shutdown_request(self, request):
            super().shutdown_request(request)
            closed.set()   # runs after handle_error for this connection

    httpd = Server(("127.0.0.1", 0), _Ping)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    try:
        sock = socket.create_connection(httpd.server_address, timeout=5)
        sock.sendall(sent)
        if sent.endswith(b"\r\n\r\n"):
            response = http.client.HTTPResponse(sock)
            response.begin()
            assert json.loads(response.read()) == {"ok": True}
            response.close()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
        sock.close()
        assert closed.wait(5)
    finally:
        httpd.shutdown()
        httpd.server_close()
    assert "Traceback" not in capsys.readouterr().err
