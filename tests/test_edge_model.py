"""A model of the edge worker: one worker per strategy against a reference, one request at a time.

The reference (``Oracle``) predicts every answer from the strategy rules
alone: TTL expiry (an entry is fresh while its age is <= ttl), SWR's
stale answer with one background revalidation that keeps the stale
entry if the origin fails (RFC 5861 stale-if-error), DPR entries scoped
to their deploy and never aged, exactly one request paying a cold
start, and the whole-ns sums of the virtual clock. After every rule the
machine also checks ``EdgeWorker.steady``: whenever it answers, the
next request must be the stateless answer it describes.

Times are whole ns, so ages land exactly on the ttl and ``<=`` against
``<`` shows.
"""

from dataclasses import dataclass, replace

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from edgelab.clock import SerialScheduler, VirtualClock
from edgelab.content import generate_posts
from edgelab.edge import CacheStatus, EdgeWorker, Strategy, StrategyConfig
from edgelab.ssg import INDEX_PATH, build_site, post_path, render_index, render_post

HIT, MISS, STALE, BYPASS = CacheStatus.HIT, CacheStatus.MISS, CacheStatus.STALE, CacheStatus.BYPASS
# Delays in ns; a StrategyConfig takes them in seconds.
BASE, KV, UPSTREAM, COLD, TTL = 1_000_000, 250_000, 62_500_000, 250_000_000, 500_000_000

POSTS = generate_posts(11, 3, word_min=5, word_max=20)
EDITED = [replace(p, title=f"{p.title} (edited)") for p in POSTS]
PATHS = [INDEX_PATH, *(post_path(p) for p in POSTS), "/no/such/page"]
# Exact steps to the ttl boundary of an entry the last request wrote: by a miss
# (stored at its end) or by an SWR revalidation (stored UPSTREAM after its end).
STEPS = [KV, BASE, UPSTREAM, TTL - BASE - KV, TTL - BASE - KV + UPSTREAM, TTL, 1_000_000_000]


def ns(seconds: float | None) -> int | None:
    return None if seconds is None else round(seconds * 1e9)


@dataclass(frozen=True)
class Answer:
    status: int
    cache: CacheStatus
    deploy_id: int | None
    server_time: float  # seconds
    body: bytes | None  # None: not compared (a 404 or 502 page)
    end: int
    write: tuple | None = None  # (key, (body, stored_at, deploy_id)) the request leaves in the cache


class Oracle:
    """What one worker answers, predicted from the strategy rules."""

    def __init__(self, config: StrategyConfig):
        self.config = config
        self.base, self.cold_start = ns(config.base_handling), ns(config.cold_start_penalty)
        self.kv, self.upstream, self.ttl = ns(config.kv_read_delay), ns(config.upstream_delay), ns(config.ttl)
        self.now = 0
        self.cold = True
        self.cache: dict[object, tuple[bytes, int, int]] = {}

    def deploy(self, build, origin) -> None:
        self.build, self.origin = build, {post_path(p): p for p in origin}
        self.index = render_index(origin).body
        if self.config.strategy is Strategy.DPR:
            self.cache = {}

    def origin_body(self, path: str) -> bytes | None:
        if path == INDEX_PATH:
            return self.index
        post = self.origin.get(path)
        return None if post is None else render_post(post).body

    def answer(self, path: str) -> Answer:
        """The next request's answer, without taking it."""
        strategy, start, dep = self.config.strategy, self.now, self.build.deploy_id
        t = start + self.base
        if self.cold:
            t += self.cold_start
        if path not in self.build.pages:
            return Answer(404, BYPASS, None, (t - start) / 1e9, None, t)
        if strategy is Strategy.STATIC:
            return Answer(200, BYPASS, dep, (t - start) / 1e9, self.build.pages[path].body, t)
        key = (path, dep) if strategy is Strategy.DPR else path
        if strategy is not Strategy.SSR:
            t += self.kv
            if (entry := self.cache.get(key)) is not None:
                body, stored_at, entry_dep = entry
                if strategy is Strategy.DPR or t - stored_at <= self.ttl:
                    return Answer(200, HIT, entry_dep, (t - start) / 1e9, body, t)
                if strategy is Strategy.SWR:
                    fresh = self.origin_body(path)
                    write = None if fresh is None else (key, (fresh, t + self.upstream, dep))
                    return Answer(200, STALE, entry_dep, (t - start) / 1e9, body, t, write)
        t += self.upstream
        if (body := self.origin_body(path)) is None:
            return Answer(502, BYPASS, None, (t - start) / 1e9, None, t)
        if strategy is Strategy.SSR:
            return Answer(200, BYPASS, dep, (t - start) / 1e9, body, t)
        return Answer(200, MISS, dep, (t - start) / 1e9, body, t, (key, (body, t, dep)))

    def take(self, answer: Answer) -> None:
        self.now, self.cold = answer.end, False
        if answer.write is not None:
            key, entry = answer.write
            self.cache[key] = entry


UPSTREAM_S, TTL_S, COLD_S, BASE_S, KV_S = (ns / 1e9 for ns in (UPSTREAM, TTL, COLD, BASE, KV))
CONFIGS = [
    StrategyConfig(Strategy.STATIC, upstream_delay=UPSTREAM_S, cold_start_penalty=COLD_S, base_handling=BASE_S),
    StrategyConfig(Strategy.SSR, upstream_delay=UPSTREAM_S, cold_start_penalty=COLD_S, base_handling=BASE_S),
    StrategyConfig(Strategy.ISR, UPSTREAM_S, TTL_S, COLD_S, BASE_S, KV_S),
    StrategyConfig(Strategy.SWR, UPSTREAM_S, TTL_S, COLD_S, BASE_S, KV_S),
    StrategyConfig(Strategy.DPR, UPSTREAM_S, TTL_S, COLD_S, BASE_S, KV_S),  # a DPR ttl must be ignored
]


class EdgeWorkerModel(RuleBasedStateMachine):
    @initialize()
    def start(self):
        self.sides = []
        for config in CONFIGS:
            scheduler = SerialScheduler()
            self.sides.append((EdgeWorker(config, scheduler), scheduler, VirtualClock(), Oracle(config)))
        self.build_posts, self.deploy_id = list(POSTS), 0
        self._deploy(POSTS, POSTS)

    def _deploy(self, build_posts, origin):
        build = build_site(list(build_posts), self.deploy_id, built_at=0.0)
        self.build_posts, self.deploy_id = list(build_posts), build.deploy_id
        for worker, _, _, oracle in self.sides:
            worker.deploy(build, origin)
            oracle.deploy(build, origin)

    @rule(path=st.sampled_from(PATHS))
    def request(self, path):
        for worker, scheduler, clock, oracle in self.sides:
            want = oracle.answer(path)
            resp = worker.handle_request(path, clock)
            scheduler.drain()
            oracle.take(want)
            got = (resp.status, resp.cache_status, resp.deploy_id, resp.server_time)
            assert got == (want.status, want.cache, want.deploy_id, want.server_time), worker.config.strategy
            assert want.body is None or resp.body == want.body
            assert clock.now() == oracle.now

    @rule(ns=st.sampled_from(STEPS))
    def advance(self, ns):
        for _, _, clock, oracle in self.sides:
            clock.sleep(ns)
            oracle.now += ns

    @rule(build_edited=st.booleans(), origin_edited=st.booleans(), lost=st.sampled_from([None, 0, 1, 2]))
    def deploy(self, build_edited, origin_edited, lost):
        origin = [p for i, p in enumerate(EDITED if origin_edited else POSTS) if i != lost]
        self._deploy(EDITED if build_edited else POSTS, origin)

    @rule(lost=st.sampled_from([0, 1, 2]))
    def origin_loses_a_post(self, lost):
        """The site stays as built; the origin behind the next deploy no longer has one post."""
        self._deploy(self.build_posts, [p for p in self.build_posts if p.slug != POSTS[lost].slug])

    @rule()
    def purge(self):
        for worker, _, _, oracle in self.sides:
            assert worker.purge_cache() == len(oracle.cache)
            oracle.cache = {}

    @rule()
    def mark_cold(self):
        for worker, _, _, oracle in self.sides:
            worker.cold_worker()
            oracle.cold = True

    @invariant()
    def steady_describes_the_next_request(self):
        for worker, _, _, oracle in self.sides:
            assert worker.cache_size == len(oracle.cache)
            for path in PATHS:
                if (state := worker.steady(path)) is None:
                    continue
                body, step, fresh_until = state
                want = oracle.answer(path)
                end = oracle.now + step
                if fresh_until is None or end <= fresh_until:
                    assert (want.status, want.write, want.body) == (200, None, body), worker.config.strategy
                    assert want.cache in (HIT, BYPASS)
                    assert want.server_time == (end - oracle.now) / 1e9
                else:
                    assert want.cache in (STALE, MISS) or want.status == 502


EdgeWorkerModel.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None,
)
TestEdgeWorkerModel = EdgeWorkerModel.TestCase
