"""The /metrics and /stats endpoints, served from a background thread."""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import HeartbeatWriter, Registry, StatsServer


@pytest.fixture
def registry() -> Registry:
    reg = Registry()
    reg.counter("oracle.programs").inc(12)
    reg.add_op_time("verifier", "mul64", 2_000_000)
    return reg


def _get(url: str) -> str:
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.read().decode("utf-8")


def test_metrics_endpoint_serves_prometheus_text(registry):
    server = StatsServer(lambda: registry).start()
    try:
        body = _get(server.url + "/metrics")
    finally:
        server.stop()
    assert "repro_oracle_programs_total 12" in body
    assert 'repro_verifier_op_seconds_total{op="mul64"} 0.002' in body


def test_stats_endpoint_embeds_heartbeat_and_staleness(tmp_path, registry):
    HeartbeatWriter(tmp_path / "heartbeat.json", interval_s=0.05).publish(
        {"phase": "campaign", "round": 1}, force=True
    )
    time.sleep(0.15)   # > 2x the declared interval: snapshot is now stale
    server = StatsServer(lambda: registry, obs_dir=tmp_path).start()
    try:
        payload = json.loads(_get(server.url + "/stats"))
    finally:
        server.stop()
    assert payload["metrics"]["counters"]["oracle.programs"] == 12
    assert payload["heartbeat"]["phase"] == "campaign"
    assert "stale" in payload


def test_unknown_route_is_404(registry):
    server = StatsServer(lambda: registry).start()
    try:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/nope")
        assert excinfo.value.code == 404
    finally:
        server.stop()


def test_live_registry_mutations_are_visible(registry):
    # registry_fn is consulted per request, not captured at start().
    server = StatsServer(lambda: registry).start()
    try:
        registry.counter("oracle.programs").inc(8)
        body = _get(server.url + "/metrics")
    finally:
        server.stop()
    assert "repro_oracle_programs_total 20" in body


def _error(url: str, method: str = "GET"):
    request = urllib.request.Request(url, method=method)
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=5)
    err = excinfo.value
    return err.code, err.headers, json.loads(err.read())


def test_unknown_route_is_the_json_404_envelope(registry):
    server = StatsServer(lambda: registry).start()
    try:
        status, _, body = _error(server.url + "/nope")
    finally:
        server.stop()
    assert status == 404
    assert body == {
        "schema_version": 1,
        "error": {"code": "not-found", "message": "no such route: /nope"},
    }


def test_raising_registry_fn_is_the_500_envelope():
    def broken() -> Registry:
        raise RuntimeError("registry unavailable")

    server = StatsServer(broken).start()
    try:
        status, _, body = _error(server.url + "/metrics")
    finally:
        server.stop()
    assert status == 500
    assert body["error"] == {
        "code": "internal-error", "message": "registry unavailable",
    }


@pytest.mark.parametrize("method, path", [("POST", "/stats"),
                                          ("PUT", "/metrics")])
def test_wrong_method_is_a_json_405_with_allow(registry, method, path):
    server = StatsServer(lambda: registry).start()
    try:
        status, headers, body = _error(server.url + path, method)
    finally:
        server.stop()
    assert status == 405
    assert headers["Allow"] == "GET"
    assert body["error"]["code"] == "method-not-allowed"
