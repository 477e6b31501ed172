"""Clocks: whole-nanosecond time and the one conversion from seconds."""

import time

import pytest

from edgelab.clock import MAX_NS, SYSTEM_CLOCK, VirtualClock, to_ns


@pytest.mark.parametrize("seconds, ns", [
    (0.0, 0),
    (0.001, 1_000_000),
    (2.0, 2_000_000_000),
    (0.0008, 800_000),
    (1e-12, 0),
    (0.6e-9, 1),
    (-0.25, -250_000_000),
    (9.2e9, 9_200_000_000_000_000_000),
])
def test_seconds_convert_to_the_nearest_ns(seconds, ns):
    assert to_ns(seconds, "t") == ns


@pytest.mark.parametrize("seconds", [float("nan"), float("inf"), -float("inf"), 1e300, -1e300, 9.3e9, MAX_NS / 1e9])
def test_seconds_without_an_int64_ns_count_are_rejected(seconds):
    with pytest.raises(ValueError, match="^base_handling "):
        to_ns(seconds, "base_handling")


def test_virtual_time_is_whole_ns():
    clock = VirtualClock(5)
    clock.sleep(1_000_000)
    fork = clock.fork()
    fork.sleep(999_995)
    assert (clock.now(), fork.now()) == (1_000_005, 2_000_000)
    with pytest.raises(TypeError):
        VirtualClock(1.0)


def test_the_system_clock_reads_monotonic_ns():
    before = time.monotonic_ns()
    now = SYSTEM_CLOCK.now()
    assert type(now) is int and before <= now <= time.monotonic_ns()
