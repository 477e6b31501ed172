import contextlib
import signal

import pytest

from edgelab.content import generate_posts
from edgelab.edge import EdgeWorker, StrategyConfig
from edgelab.ssg import build_site


class Overran(BaseException):
    """A call was still running when its ``deadline`` expired.

    Not an ``Exception``, so hypothesis reports it at once instead of
    shrinking: each shrink step would wait out the deadline again.
    """


@contextlib.contextmanager
def _deadline(seconds: float):
    def expire(signum, frame):
        raise Overran(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def deadline():
    """``with deadline(s):`` raises ``Overran`` in the test's thread if the block takes over ``s`` seconds."""
    return _deadline


@pytest.fixture
def spy(monkeypatch):
    """``spy(owner, attr)`` wraps ``owner.attr`` for the test and returns a list of what each call returned."""

    def install(owner, attr):
        seen, real = [], getattr(owner, attr)

        def wrapper(*args):
            seen.append(real(*args))
            return seen[-1]

        monkeypatch.setattr(owner, attr, wrapper)
        return seen

    return install


@pytest.fixture(scope="session")
def posts10():
    return generate_posts(7, 10)


@pytest.fixture(scope="session")
def build10(posts10):
    return build_site(posts10, built_at=0.0)


@pytest.fixture
def worker_factory(posts10, build10):
    """Deployed worker for a strategy; kwargs override StrategyConfig fields."""

    def make(strategy, scheduler=None, **overrides):
        overrides.setdefault("upstream_delay", 0.1)
        worker = EdgeWorker(StrategyConfig(strategy=strategy, **overrides), scheduler)
        worker.deploy(build10, posts10)
        return worker

    return make


def pytest_configure(config):
    config.addinivalue_line("markers", "wallclock: test measures real elapsed time")
