"""Throttle model arithmetic."""

from dataclasses import replace

import pytest

from edgelab.edge import CacheStatus, Response
from edgelab.netmodel import (
    PROFILES,
    InvalidResponseError,
    ThrottleProfile,
    fcp_proxy,
    transfer_time,
)

MOBILE = PROFILES["mobile-throttled"]


def _resp(body: bytes, server_time: float) -> Response:
    return Response(200, body, server_time, CacheStatus.BYPASS)


def test_mobile_profile_numbers():
    assert MOBILE.downlink == 1_600_000.0
    assert MOBILE.rtt == 0.150


def test_transfer_time_oracle():
    assert transfer_time(0, MOBILE) == 0.0
    assert transfer_time(10_000, MOBILE) == pytest.approx(0.050)  # 10000*8/1.6e6
    assert transfer_time(200_000, MOBILE) == pytest.approx(1.000)


def test_transfer_time_rejects_negative_sizes():
    with pytest.raises(ValueError):
        transfer_time(-1, MOBILE)


def test_fcp_reduces_to_rtt_for_empty_instant_response():
    assert fcp_proxy(_resp(b"", 0.0), MOBILE) == pytest.approx(0.150)


def test_fcp_sums_all_terms():
    # 150 rtt + 100 server + 50 transfer = 300 ms
    assert fcp_proxy(_resp(b"x" * 10_000, 0.100), MOBILE) == pytest.approx(0.300)


def test_fcp_includes_render_overhead():
    prof = replace(MOBILE, render_overhead=0.25)
    assert fcp_proxy(_resp(b"", 0.0), prof) == pytest.approx(0.400)


def test_fcp_requires_success():
    with pytest.raises(InvalidResponseError):
        fcp_proxy(Response(404, b"nope", 0.0, CacheStatus.BYPASS), MOBILE)


def test_none_profile_passes_server_time_through():
    none = PROFILES["none"]
    assert fcp_proxy(_resp(b"x" * 100_000, 0.123), none) == pytest.approx(0.123)


def test_profile_validation():
    with pytest.raises(ValueError):
        ThrottleProfile(downlink=0)
    with pytest.raises(ValueError):
        ThrottleProfile(rtt=-1)


def test_render_overhead_can_reach_reported_fcp_band():
    """The render constant is the knob that maps the proxy onto realistic
    full-browser paint times (~860-880 ms for a throttled static post)."""
    from edgelab.content import generate_posts
    from edgelab.ssg import build_site

    body = build_site(generate_posts(42, 100)).pages["/posts/post-0"].body
    base = fcp_proxy(_resp(body, 0.001), MOBILE)
    needed = 0.870 - base
    assert needed > 0
    tuned = replace(MOBILE, render_overhead=needed)
    assert 0.860 <= fcp_proxy(_resp(body, 0.001), tuned) <= 0.880
