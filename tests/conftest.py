"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import http.client
import random
import statistics
import time
import urllib.parse

import pytest
from hypothesis import strategies as st

from repro.core.tnum import Tnum, mask_for_width


def tnums(width: int, allow_bottom: bool = False) -> st.SearchStrategy:
    """Hypothesis strategy for well-formed tnums of a fixed width."""
    limit = mask_for_width(width)

    def build(mask: int, raw_value: int) -> Tnum:
        return Tnum(raw_value & ~mask & limit, mask, width)

    base = st.builds(
        build,
        st.integers(min_value=0, max_value=limit),
        st.integers(min_value=0, max_value=limit),
    )
    if allow_bottom:
        return st.one_of(base, st.just(Tnum.bottom(width)))
    return base


def members(t: Tnum, rng: random.Random, count: int = 3):
    """Up to ``count`` random concrete members of γ(t)."""
    out = []
    for _ in range(count):
        fill = rng.randint(0, mask_for_width(t.width)) & t.mask
        out.append(t.value | fill)
    return out


def keepalive_median_ms(base_url, method, path, body=None, headers=None,
                        n=20):
    """Median latency of ``n`` requests over one persistent connection.

    With Nagle on, every reply after the first waits ~40 ms for the
    client's delayed ACK of its headers.
    """
    url = urllib.parse.urlsplit(base_url)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
    times = []
    try:
        for _ in range(n):
            start = time.perf_counter()
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            response.read()
            times.append(time.perf_counter() - start)
            assert response.status == 200
    finally:
        conn.close()
    return statistics.median(times) * 1000.0


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)
