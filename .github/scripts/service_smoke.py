#!/usr/bin/env python3
"""CI smoke client for `repro serve` — stdlib only.

Drives a running verification service end to end: a good program over
both wire and JSON encodings, malformed submissions, the verdict-lookup
and stats endpoints.  Shape assertions are tolerant (required keys and
types only) so additive response fields never break this script.

With ``--keepalive`` it instead sends 20 POSTs over one persistent
HTTP/1.1 connection (``urllib`` opens a new one per request, so the
checks above never see keep-alive) and fails if the median reply takes
over 20 ms — a reply stalled on the client's delayed ACK takes ~40 ms.

Usage: service_smoke.py [--keepalive] [BASE_URL]
       (default http://127.0.0.1:8737)
"""

import http.client
import json
import statistics
import sys
import time
import urllib.error
import urllib.parse
import urllib.request

# mov r0, 0 ; exit — the smallest accepted program, in kernel wire format.
GOOD_WIRE = bytes.fromhex("b700000000000000" "9500000000000000")


def request(base, path, data=None, content_type=None):
    headers = {"Content-Type": content_type} if content_type else {}
    req = urllib.request.Request(base + path, data=data, headers=headers)
    try:
        with urllib.request.urlopen(req, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def post_wire(base, body, path="/verify"):
    return request(base, path, body, "application/octet-stream")


def post_json(base, payload, path="/verify"):
    return request(base, path, json.dumps(payload).encode(),
                   "application/json")


def check(label, condition, context):
    if not condition:
        print(f"FAIL {label}: {context}")
        sys.exit(1)
    print(f"ok   {label}")


def check_verdict_shape(label, body):
    for key, kind in (
        ("schema_version", int), ("canonical_hash", str), ("ctx_size", int),
        ("verdict", str), ("ok", bool), ("insns_processed", int),
        ("cached", bool),
    ):
        check(f"{label}: {key} is {kind.__name__}",
              isinstance(body.get(key), kind), body)


def check_error_shape(label, body):
    error = body.get("error", {})
    check(f"{label}: error code/message",
          isinstance(error.get("code"), str)
          and isinstance(error.get("message"), str), body)


def keepalive(base, n=20, limit_ms=20.0):
    url = urllib.parse.urlsplit(base)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
    times, replies = [], []
    try:
        for _ in range(n):
            start = time.perf_counter()
            conn.request("POST", "/verify", body=GOOD_WIRE,
                         headers={"Content-Type": "application/octet-stream"})
            response = conn.getresponse()
            body = json.loads(response.read())
            times.append(time.perf_counter() - start)
            replies.append((response.status, body.get("verdict")))
    finally:
        conn.close()
    check(f"{n} keep-alive POSTs accept",
          all(reply == (200, "accept") for reply in replies), replies)
    median_ms = statistics.median(times) * 1000.0
    check(f"keep-alive median {median_ms:.2f} ms <= {limit_ms:g} ms",
          median_ms <= limit_ms, [round(t * 1000.0, 2) for t in times])
    print("service smoke: keep-alive checks passed")


def main():
    args = sys.argv[1:]
    base = next((a for a in args if not a.startswith("--")),
                "http://127.0.0.1:8737")
    if "--keepalive" in args:
        keepalive(base)
        return

    status, body = request(base, "/healthz")
    check("healthz", status == 200 and body.get("status") == "ok", body)

    # Cold submission: raw wire bytes.
    status, cold = post_wire(base, GOOD_WIRE)
    check("wire POST status", status == 200, (status, cold))
    check_verdict_shape("wire POST", cold)
    check("wire POST accepts",
          cold["verdict"] == "accept" and cold["ok"] is True, cold)
    check("cold is uncached", cold["cached"] is False, cold)

    # Warm repeat via the JSON encoding: same canonical program, so the
    # service must answer from the verdict cache.
    status, warm = post_json(base, {"program_hex": GOOD_WIRE.hex()})
    check("json POST status", status == 200, (status, warm))
    check_verdict_shape("json POST", warm)
    check("warm repeat is cached", warm["cached"] is True, warm)
    check("hashes agree",
          warm["canonical_hash"] == cold["canonical_hash"], (cold, warm))

    # Malformed submissions: undecodable -> 400, unacceptable -> 422.
    status, body = post_wire(base, b"\xde\xad\xbe\xef")
    check("truncated wire -> 400", status == 400, (status, body))
    check_error_shape("truncated wire", body)

    status, body = request(base, "/verify", b"{not json",
                           "application/json")
    check("bad json -> 400", status == 400, (status, body))
    check_error_shape("bad json", body)

    status, body = post_json(
        base, {"program_hex": GOOD_WIRE.hex(), "ctx_size": "enormous"})
    check("bad ctx_size -> 422", status == 422, (status, body))
    check_error_shape("bad ctx_size", body)

    # Verdict lookup by canonical hash.
    status, body = request(base, f"/verdict/{cold['canonical_hash']}")
    check("verdict lookup", status == 200 and body["cached"] is True, body)
    status, body = request(base, "/verdict/" + "0" * 64)
    check("unknown verdict -> 404", status == 404, (status, body))

    # Stats: one verification, at least one cache hit, rejections counted.
    status, stats = request(base, "/stats")
    check("stats status", status == 200, status)
    service = stats.get("service", {})
    check("stats: one verification",
          service.get("verifications") == 1, service)
    check("stats: cache hits > 0",
          service.get("cache", {}).get("hits", 0) > 0, service)
    check("stats: rejections counted",
          service.get("rejections", 0) >= 2, service)

    # Prometheus exposition.
    req = urllib.request.Request(base + "/metrics")
    with urllib.request.urlopen(req, timeout=10) as response:
        text = response.read().decode()
    check("metrics exposition",
          "repro_api_requests_total" in text
          and "repro_api_cache_hits_total" in text,
          text.splitlines()[:5])

    print("service smoke: all checks passed")


if __name__ == "__main__":
    main()
