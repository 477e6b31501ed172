"""Edge worker runtime: five serving strategies over a key-value cache.

Strategies
    STATIC  serve the prebuilt page; no origin work, ever.
    SSR     re-render from the origin on every request.
    ISR     render on first request, cache forever (or until ttl), then
            serve from cache; stale entries are re-rendered inline.
    SWR     like ISR with a mandatory ttl, but a stale hit is served
            immediately from cache while one background revalidation
            refreshes the entry for later requests. If the origin fails,
            the stale entry stays and the next stale hit retries.
    DPR     like ISR with an infinite ttl, except cache entries are
            keyed by deploy, so a new deploy atomically orphans every
            previously cached page.

A worker holds one deployment at a time (the built site plus the
origin's content at that deploy) and swaps it atomically on
``deploy``. Requests take a single snapshot reference up front, so a
response is always consistent with exactly one deployment.

Timing is simulated against the caller's clock: a fixed per-request
handling cost, the origin delay when a render happens, and a one-shot
cold-start penalty for the first request a fresh (or reset) worker
instance handles. Configured delays are seconds; the worker spends them
on the clock as whole nanoseconds, and reports ``server_time`` in
seconds again.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .clock import SYSTEM_CLOCK, Clock, Scheduler, ThreadScheduler, to_ns
from .content import Post
from .ssg import INDEX_PATH, POST_PATH_PREFIX, SiteBuild, render_index, render_post

_NOT_FOUND_BODY = b"<!doctype html>\n<html><head><title>Not Found</title></head><body><main><h1>404 Not Found</h1></main></body></html>\n"
_UPSTREAM_ERROR_BODY = b"<!doctype html>\n<html><head><title>Bad Gateway</title></head><body><main><h1>502 Bad Gateway</h1></main></body></html>\n"


class Strategy(Enum):
    STATIC = "STATIC"
    SSR = "SSR"
    ISR = "ISR"
    SWR = "SWR"
    DPR = "DPR"


class CacheStatus(Enum):
    HIT = "HIT"
    MISS = "MISS"
    STALE = "STALE"
    BYPASS = "BYPASS"


# Bound once: an enum member lookup (``Strategy.STATIC``) costs several
# times a module-global read, and the request path makes several per call.
_STATIC, _SSR, _SWR = Strategy.STATIC, Strategy.SSR, Strategy.SWR
_HIT, _MISS, _STALE, _BYPASS = CacheStatus.HIT, CacheStatus.MISS, CacheStatus.STALE, CacheStatus.BYPASS


class StaleDeployError(ValueError):
    """Deploy id is not greater than the currently deployed one."""


class UpstreamError(RuntimeError):
    """The origin could not produce content for a path the site claims to have."""


@dataclass(frozen=True)
class StrategyConfig:
    """How one served variant behaves and what its simulated costs are.

    ``ttl`` of None means entries never go stale by age. SWR requires a
    finite positive ttl; STATIC and SSR ignore it. ``kv_read_delay``
    models a remote cache lookup (default: in-process, free).
    """

    strategy: Strategy
    upstream_delay: float = 0.1
    ttl: float | None = None
    cold_start_penalty: float = 0.0
    base_handling: float = 0.001
    kv_read_delay: float = 0.0

    def __post_init__(self) -> None:
        for name in ("upstream_delay", "cold_start_penalty", "base_handling", "kv_read_delay"):
            value = getattr(self, name)
            to_ns(value, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.ttl is not None:
            to_ns(self.ttl, "ttl")
            if self.ttl <= 0:
                raise ValueError(f"ttl must be positive, not {self.ttl} (use None for no expiry)")
        if self.strategy is Strategy.SWR and self.ttl is None:
            raise ValueError("ttl must not be None: SWR requires a finite ttl")


@dataclass(slots=True)
class Response:
    """One answer to one request.

    A worker may hand the same response to several requests (see
    ``EdgeWorker.handle_request``), so treat it as read-only.
    """

    status: int
    body: bytes
    server_time: float
    cache_status: CacheStatus
    deploy_id: int | None = None


@dataclass(slots=True)
class CacheEntry:
    body: bytes
    fresh_until: int | None  # ns: a request that reads it by then is a HIT; None: never stale
    deploy_id: int
    hit: tuple[int, Response | None] = (-1, None)  # the last HIT served from this entry, by its elapsed ns


@dataclass(frozen=True)
class Deployment:
    """One atomic release: the built pages plus the origin's content at that release."""

    build: SiteBuild
    posts: tuple[Post, ...]
    by_slug: Mapping[str, Post]
    answers: dict[str, bytes]  # the body of the last SSR 200 per path, which ``steady`` answers with


class EdgeWorker:
    """One simulated worker instance serving a single variant.

    Thread safety: ``handle_request`` may be called from any number of
    threads. The deployment is swapped as a single reference; cache
    mutations happen under a lock (reads are lock-free snapshot reads).
    A fresh worker starts cold. The cold flag is read without the lock
    and re-checked under it only when set, so exactly one request pays
    the cold-start penalty.

    Under a ``VirtualClock`` the simulated load driver hands each request
    a connection clock that already reads the request's event time, and
    schedules that connection's next request at the clock's reading when
    ``handle_request`` returns. Every simulated request must therefore
    advance the clock it is given (a ``base_handling`` of at least 1 ns
    once rounded, or some other delay); the driver rejects a response that
    took no virtual time.
    A request changes no state when it is a STATIC answer, an SSR answer
    or a fresh HIT on a warm worker; ``steady`` says what such a request
    gets, and the driver steps through runs of them without calling
    ``handle_request``. SSR still renders on every request it handles,
    but its page is a pure function of the deployment and the path, so
    ``steady`` answers with the last render this deployment made.
    """

    def __init__(self, config: StrategyConfig, scheduler: Scheduler | None = None):
        self.config = config
        self._strategy = config.strategy
        self._scheduler: Scheduler = scheduler if scheduler is not None else ThreadScheduler()
        self._deployment: Deployment | None = None
        self._cache: dict[object, CacheEntry] = {}
        self._lock = threading.Lock()
        self._cold = True
        self._revalidating: set[str] = set()
        # The cache rule, read by ``handle_request`` and ``steady``: DPR keys
        # entries by deploy, so a request never reads an entry written for
        # another deploy (even by a request begun before the swap), and never
        # ages them; ISR and SWR key by path. Set once: a method call per
        # request would cost more than the lookup.
        self._by_deploy = self._strategy is Strategy.DPR
        self._ttl = None if self._by_deploy or config.ttl is None else to_ns(config.ttl, "ttl")
        # Delays in ns, converted once.
        self._base = to_ns(config.base_handling, "base_handling")
        self._cold_start = to_ns(config.cold_start_penalty, "cold_start_penalty")
        self._upstream = to_ns(config.upstream_delay, "upstream_delay")
        self._kv = to_ns(config.kv_read_delay, "kv_read_delay")

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    def deploy(self, build: SiteBuild, posts: Sequence[Post]) -> None:
        """Atomically swap in a new deployment.

        ``posts`` is the origin's content at this deploy: SSR, ISR, SWR
        and DPR render from it, while STATIC serves the build. It may
        differ from ``build.posts``, which models an origin that has
        changed (or lost a post) since the site was built: the freshness
        gap between the strategies. Under DPR, every entry cached for
        earlier deploys becomes unreachable at the swap.
        """
        dep = Deployment(build=build, posts=tuple(posts), by_slug={p.slug: p for p in posts}, answers={})
        with self._lock:
            current = self._deployment
            if current is not None and build.deploy_id <= current.build.deploy_id:
                raise StaleDeployError(
                    f"deploy {build.deploy_id} is not newer than {current.build.deploy_id}"
                )
            self._deployment = dep
            if self._by_deploy:
                # Old entries are unreachable anyway (keys carry the deploy
                # id); dropping them just frees memory.
                self._cache = {}

    def purge_cache(self) -> int:
        """Empty the cache. Next request per path is a MISS."""
        with self._lock:
            removed = len(self._cache)
            self._cache = {}
            return removed

    def cold_worker(self) -> None:
        """Mark the instance cold: the next request (only) pays the penalty."""
        with self._lock:
            self._cold = True

    def handle_request(self, path: str, clock: Clock = SYSTEM_CLOCK) -> Response:
        """Serve ``path``, spending its simulated time on ``clock``.

        A cache HIT may be the object returned to an earlier request: the
        worker keeps the last HIT it built per cache entry with its elapsed
        ns, and returns it again when the elapsed ns are equal, as nothing
        else in it can differ. Treat the response as read-only.
        """
        dep = self._deployment
        if dep is None:
            raise RuntimeError("no deployment: call deploy() before serving")
        strategy = self._strategy
        start = clock.now()
        clock.sleep(self._base)
        if self._cold and self._consume_cold():
            clock.sleep(self._cold_start)

        build = dep.build
        prebuilt = build.pages.get(path)
        if prebuilt is None:
            # 404s behave identically across strategies and are never cached.
            return Response(404, _NOT_FOUND_BODY, (clock.now() - start) / 1e9, _BYPASS)
        deploy_id = build.deploy_id

        if strategy is _STATIC:
            return Response(200, prebuilt.body, (clock.now() - start) / 1e9, _BYPASS, deploy_id)

        if strategy is _SSR:
            try:
                body = dep.answers[path] = self._render(dep, path, clock)
            except UpstreamError:
                return Response(502, _UPSTREAM_ERROR_BODY, (clock.now() - start) / 1e9, _BYPASS)
            return Response(200, body, (clock.now() - start) / 1e9, _BYPASS, deploy_id)

        if self._kv:
            clock.sleep(self._kv)
        key = (path, deploy_id) if self._by_deploy else path
        entry = self._cache.get(key)

        if entry is not None:
            now = clock.now()
            if (until := entry.fresh_until) is None or now <= until:
                elapsed = now - start
                hit = entry.hit
                if hit[0] != elapsed:
                    hit = entry.hit = (elapsed, Response(200, entry.body, elapsed / 1e9, _HIT, entry.deploy_id))
                return hit[1]
            if strategy is _SWR:
                # Serve the stale bytes now; refresh for later requests.
                self._schedule_revalidation(path, key, clock)
                return Response(200, entry.body, (clock.now() - start) / 1e9, _STALE, entry.deploy_id)
            # ISR with a finite ttl treats stale as a miss: re-render inline.

        try:
            body = self._render(dep, path, clock)
        except UpstreamError:
            return Response(502, _UPSTREAM_ERROR_BODY, (clock.now() - start) / 1e9, _BYPASS)
        with self._lock:
            self._cache[key] = self._entry(body, clock.now(), deploy_id)
        return Response(200, body, (clock.now() - start) / 1e9, _MISS, deploy_id)

    def steady(self, path: str) -> tuple[bytes, int, int | None] | None:
        """What a request for ``path`` gets now if it changes no state, or None if it may.

        Returns ``(body, step, fresh_until)``, times in whole ns: the page,
        the time a request takes on that path (``base_handling``, plus
        ``kv_read_delay`` for a HIT or ``upstream_delay`` for SSR), and the
        last time a request may end and still find the page fresh (None:
        never stale). So a request starting at t is a STATIC or SSR answer
        or a HIT that ends at ``t + step``, as long as ``t + step <=
        fresh_until``. None for a cold worker, no deployment, a 404, no
        entry for this deploy, or an SSR page this deployment has not yet
        rendered (or cannot: the origin lost it). The SSR body is that
        earlier render, not a new one.
        """
        dep = self._deployment
        if dep is None or self._cold:
            return None
        page = dep.build.pages.get(path)
        if page is None:
            return None
        if self._strategy is _STATIC:
            return page.body, self._base, None
        if self._strategy is _SSR:
            body = dep.answers.get(path)
            return None if body is None else (body, self._base + self._upstream, None)
        entry = self._cache.get((path, dep.build.deploy_id) if self._by_deploy else path)
        if entry is None:
            return None
        return entry.body, self._base + self._kv, entry.fresh_until

    def _entry(self, body: bytes, now: int, deploy_id: int) -> CacheEntry:
        return CacheEntry(body, None if self._ttl is None else now + self._ttl, deploy_id)

    def _render(self, dep: Deployment, path: str, clock: Clock) -> bytes:
        """Fetch content from the simulated origin and render the page's bytes.

        The configured delay applies once per render, covering the
        origin round trip for the whole page.
        """
        clock.sleep(self._upstream)
        if path == INDEX_PATH:
            return render_index(dep.posts).body
        slug = path.removeprefix(POST_PATH_PREFIX)
        post = dep.by_slug.get(slug)
        if post is None:
            raise UpstreamError(f"origin has no content for {path}")
        return render_post(post).body

    def _schedule_revalidation(self, path: str, key: object, clock: Clock) -> None:
        with self._lock:
            if path in self._revalidating:
                return  # one in-flight revalidation per path
            self._revalidating.add(path)
        task_clock = clock.fork()

        def revalidate() -> None:
            try:
                dep = self._deployment
                if dep is None:
                    return
                try:
                    body = self._render(dep, path, task_clock)
                except UpstreamError:
                    # stale-if-error (RFC 5861): keep the stale entry; the
                    # next stale read schedules another attempt.
                    return
                entry = self._entry(body, task_clock.now(), dep.build.deploy_id)
                with self._lock:
                    self._cache[key] = entry
            finally:
                with self._lock:
                    self._revalidating.discard(path)

        self._scheduler.submit(revalidate)

    def _consume_cold(self) -> bool:
        """Clear the cold flag under the lock; True only for the request that cleared it."""
        with self._lock:
            if self._cold:
                self._cold = False
                return True
            return False
