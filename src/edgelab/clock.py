"""Time sources and background-task schedulers.

Everything that measures or spends time goes through a ``Clock`` so the
same code can run against the wall clock (serve mode) or against a
virtual clock (simulation mode, where delays cost no real time and
every duration comes out exact and reproducible). Clock time is an int
of nanoseconds, so sums of delays are exact; ``to_ns`` is the one
conversion from the seconds that configs and flags are written in.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Callable, Protocol


# The largest time a config value may give, in ns: int64's, as in ns-3's
# ``ns3::Time`` (about 292 years).
MAX_NS = 2**63 - 1


def to_ns(seconds: float, name: str) -> int:
    """``seconds`` as the nearest whole number of nanoseconds.

    Raises ValueError naming ``name`` unless ``seconds`` is finite and at
    most ``MAX_NS`` ns either side of 0.
    """
    if not math.isfinite(seconds):
        raise ValueError(f"{name} must be a finite number of seconds, not {seconds}")
    if abs(seconds) * 1e9 > MAX_NS:
        raise ValueError(f"{name} must be within {MAX_NS // 10**9} seconds of 0, not {seconds}")
    return round(seconds * 1e9)


class Clock(Protocol):
    """Time as an int of nanoseconds; config files and reports keep seconds."""

    def now(self) -> int:
        """Current time in ns. Monotone per clock instance."""
        ...

    def sleep(self, ns: int) -> None:
        """Advance this clock by ``ns`` nanoseconds (blocking on a wall clock)."""
        ...

    def fork(self) -> "Clock":
        """A clock starting at this clock's current time, advancing independently."""
        ...


class SystemClock:
    """Wall-clock time backed by ``time.monotonic_ns``."""

    def now(self) -> int:
        return time.monotonic_ns()

    def sleep(self, ns: int) -> None:
        if ns > 0:
            time.sleep(ns / 1e9)

    def fork(self) -> "SystemClock":
        # Wall time is shared; forking is a no-op.
        return self


SYSTEM_CLOCK = SystemClock()


class VirtualClock:
    """Deterministic clock that only moves when told to.

    ``sleep`` advances time immediately, so simulated delays are exact
    and free. Independent timelines (e.g. concurrent connections in a
    simulated load run) each get their own fork; a driver keeps them
    consistent by processing events in timestamp order.
    """

    def __init__(self, start: int = 0):
        if type(start) is not int:
            raise TypeError(f"virtual time is an int of ns, not {start!r}")
        self._t = start

    def now(self) -> int:
        return self._t

    def sleep(self, ns: int) -> None:
        if ns < 0:
            raise ValueError("cannot sleep a negative duration")
        self._t += ns

    def fork(self) -> "VirtualClock":
        return VirtualClock(self._t)


class Scheduler(Protocol):
    """Where background work (e.g. cache revalidation) gets executed."""

    def submit(self, fn: Callable[[], None]) -> None: ...


class ThreadScheduler:
    """Runs each task on its own daemon thread. Serve-mode default."""

    def submit(self, fn: Callable[[], None]) -> None:
        threading.Thread(target=fn, daemon=True).start()


class SerialScheduler:
    """Queues tasks and runs them only when drained, in submission order.

    Single-threaded stand-in for ThreadScheduler used in simulation
    mode: the test or load driver decides exactly when background work
    completes, which makes interleavings reproducible.
    """

    def __init__(self) -> None:
        self._queue: deque[Callable[[], None]] = deque()

    def submit(self, fn: Callable[[], None]) -> None:
        self._queue.append(fn)

    @property
    def pending(self) -> int:
        return len(self._queue)

    def drain(self) -> int:
        """Run queued tasks (including ones they enqueue). Returns count run."""
        ran = 0
        while self._queue:
            self._queue.popleft()()
            ran += 1
        return ran
