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
content snapshot it was built from) and swaps it atomically on
``deploy``. Requests take a single snapshot reference up front, so a
response is always consistent with exactly one deployment.

Timing is simulated against the caller's clock: a fixed per-request
handling cost, the origin delay when a render happens, and a one-shot
cold-start penalty for the first request a fresh (or reset) worker
instance handles.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .clock import SYSTEM_CLOCK, Clock, Scheduler, ThreadScheduler
from .content import Post
from .ssg import INDEX_PATH, POST_PATH_PREFIX, RenderedPage, SiteBuild, render_index, render_post

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
_STATIC, _SSR, _SWR, _DPR = Strategy.STATIC, Strategy.SSR, Strategy.SWR, Strategy.DPR
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
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.ttl is not None and self.ttl <= 0:
            raise ValueError("ttl must be positive (use None for no expiry)")
        if self.strategy is Strategy.SWR and self.ttl is None:
            raise ValueError("SWR requires a finite ttl")


@dataclass(frozen=True)
class CacheEntry:
    page: RenderedPage
    stored_at: float
    deploy_id: int


@dataclass(slots=True)
class Response:
    status: int
    body: bytes
    server_time: float
    cache_status: CacheStatus
    deploy_id: int | None = None


@dataclass(frozen=True)
class Deployment:
    """One atomic release: the built pages plus the content they came from."""

    build: SiteBuild
    posts: tuple[Post, ...]
    by_slug: Mapping[str, Post]

    @classmethod
    def create(cls, build: SiteBuild, posts: Sequence[Post]) -> "Deployment":
        return cls(build=build, posts=tuple(posts), by_slug={p.slug: p for p in posts})


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
    advance the clock it is given (``base_handling`` > 0, or some other
    delay); the driver rejects a response that took no virtual time.
    """

    def __init__(self, config: StrategyConfig, scheduler: Scheduler | None = None):
        self.config = config
        self._scheduler: Scheduler = scheduler if scheduler is not None else ThreadScheduler()
        self._deployment: Deployment | None = None
        self._cache: dict[object, CacheEntry] = {}
        self._lock = threading.Lock()
        self._cold = True
        self._revalidating: set[str] = set()

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    def deploy(self, build: SiteBuild, posts: Sequence[Post]) -> None:
        """Atomically swap in a new deployment.

        ``posts`` is the content snapshot the build was rendered from;
        on-demand strategies render from it. Under DPR, every entry
        cached for earlier deploys becomes unreachable at the swap.
        """
        dep = Deployment.create(build, posts)
        with self._lock:
            current = self._deployment
            if current is not None and build.deploy_id <= current.build.deploy_id:
                raise StaleDeployError(
                    f"deploy {build.deploy_id} is not newer than {current.build.deploy_id}"
                )
            self._deployment = dep
            if self.config.strategy is Strategy.DPR:
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
        dep = self._deployment
        if dep is None:
            raise RuntimeError("no deployment: call deploy() before serving")
        cfg = self.config
        strategy = cfg.strategy
        start = clock.now()
        clock.sleep(cfg.base_handling)
        if self._cold and self._consume_cold():
            clock.sleep(cfg.cold_start_penalty)

        build = dep.build
        prebuilt = build.pages.get(path)
        if prebuilt is None:
            # 404s behave identically across strategies and are never cached.
            return Response(404, _NOT_FOUND_BODY, clock.now() - start, _BYPASS)
        deploy_id = build.deploy_id

        if strategy is _STATIC:
            return Response(200, prebuilt.body, clock.now() - start, _BYPASS, deploy_id)

        if strategy is _SSR:
            try:
                page = self._render(dep, path, clock)
            except UpstreamError:
                return Response(502, _UPSTREAM_ERROR_BODY, clock.now() - start, _BYPASS)
            return Response(200, page.body, clock.now() - start, _BYPASS, deploy_id)

        if strategy is _DPR:
            key: object = (path, deploy_id)
            ttl = None  # DPR staleness is deploy-scoped, never time-based
        else:
            key = path
            ttl = cfg.ttl

        if cfg.kv_read_delay:
            clock.sleep(cfg.kv_read_delay)
        entry = self._cache.get(key)
        if entry is not None and strategy is _DPR and entry.deploy_id != deploy_id:
            entry = None  # guards a racing write from a request begun pre-deploy

        if entry is not None:
            now = clock.now()
            if ttl is None or now - entry.stored_at <= ttl:
                return Response(200, entry.page.body, now - start, _HIT, entry.deploy_id)
            if strategy is _SWR:
                # Serve the stale bytes now; refresh for later requests.
                self._schedule_revalidation(path, key, clock)
                return Response(200, entry.page.body, clock.now() - start, _STALE, entry.deploy_id)
            # ISR with a finite ttl treats stale as a miss: re-render inline.

        try:
            page = self._render(dep, path, clock)
        except UpstreamError:
            return Response(502, _UPSTREAM_ERROR_BODY, clock.now() - start, _BYPASS)
        new_entry = CacheEntry(page=page, stored_at=clock.now(), deploy_id=deploy_id)
        with self._lock:
            self._cache[key] = new_entry
        return Response(200, page.body, clock.now() - start, _MISS, deploy_id)

    def _render(self, dep: Deployment, path: str, clock: Clock) -> RenderedPage:
        """Fetch content from the simulated origin and render the page.

        The configured delay applies once per render, covering the
        origin round trip for the whole page.
        """
        clock.sleep(self.config.upstream_delay)
        if path == INDEX_PATH:
            return render_index(dep.posts)
        slug = path.removeprefix(POST_PATH_PREFIX)
        post = dep.by_slug.get(slug)
        if post is None:
            raise UpstreamError(f"origin has no content for {path}")
        return render_post(post)

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
                    page = self._render(dep, path, task_clock)
                except UpstreamError:
                    # stale-if-error (RFC 5861): keep the stale entry; the
                    # next stale read schedules another attempt.
                    return
                entry = CacheEntry(page=page, stored_at=task_clock.now(), deploy_id=dep.build.deploy_id)
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
