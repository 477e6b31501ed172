"""Client-side network model and first-paint proxy.

A real throttled browser is out of scope; this is a deliberately
simple, documented stand-in. The link is a single connection with a
linear transfer time (no slow start, no protocol overhead), and first
contentful paint is approximated as

    fcp = rtt + server_time + body_bytes * 8 / downlink + render_overhead

Absolute values from a real browser are not reproducible with this
model; differences between serving strategies are, because for equal
bodies the strategy only enters through ``server_time``.
``render_overhead`` is a free calibration constant and is reported in
every output rather than silently defaulted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .edge import Response


class InvalidResponseError(ValueError):
    """First-paint proxy is only defined for successful responses."""


@dataclass(frozen=True)
class ThrottleProfile:
    """Link parameters. Defaults are a throttled mobile connection."""

    downlink: float = 1_600_000.0  # bits/second
    rtt: float = 0.150             # seconds
    render_overhead: float = 0.0   # seconds, calibration constant

    def __post_init__(self) -> None:
        if self.downlink <= 0:
            raise ValueError("downlink must be positive")
        if self.rtt < 0 or self.render_overhead < 0:
            raise ValueError("rtt and render_overhead must be >= 0")


PROFILES: dict[str, ThrottleProfile] = {
    # 1.6 Mbps down / 750 Kbps up (the uplink is not modelled), 150 ms latency.
    "mobile-throttled": ThrottleProfile(),
    # All client-side costs zero; fcp reduces to server_time.
    "none": ThrottleProfile(downlink=math.inf, rtt=0.0),
}


def transfer_time(nbytes: int, profile: ThrottleProfile) -> float:
    """Seconds to move ``nbytes`` down the link."""
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    return nbytes * 8.0 / profile.downlink


def fcp_proxy(response: Response, profile: ThrottleProfile) -> float:
    """First-contentful-paint estimate for a successful response."""
    if response.status != 200:
        raise InvalidResponseError(f"fcp proxy undefined for status {response.status}")
    return (
        profile.rtt
        + response.server_time
        + transfer_time(len(response.body), profile)
        + profile.render_overhead
    )
