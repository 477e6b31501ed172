"""Cache churn, pinned: ISR, SWR and DPR serving a 1/rank page mix while posts are edited and redeployed.

Each worker runs on its own virtual clock and scheduler through
``run_load``, 5 epochs of 2 s with 2 connections. Before every epoch but
the first, 3 posts are edited, the site is rebuilt incrementally and the
new build is deployed. The target is a bare callable, so every request
reaches ``handle_request`` and is counted here.

The pins move only when the cache rules or the simulated timing change;
such a change records the old and new figures.
"""

import random

from edgelab import edge
from edgelab.bench import BenchConfig, LatencyHistogram, run_load
from edgelab.clock import SerialScheduler, VirtualClock
from edgelab.content import generate_posts, make_post
from edgelab.edge import CacheStatus, EdgeWorker, Strategy, StrategyConfig
from edgelab.ssg import INDEX_PATH, build_site, incremental_rebuild, post_path

SEED = 42
POSTS, EPOCHS, EPOCH_S, CONNECTIONS, EDITS = 20, 5, 2.0, 2, 3
CONFIGS = {
    "isr": StrategyConfig(Strategy.ISR, ttl=1.0),
    "swr": StrategyConfig(Strategy.SWR, ttl=1.0),
    "dpr": StrategyConfig(Strategy.DPR),
}
POINTS = (50.0, 90.0, 99.0, 100.0)

# Per worker: responses by cache status, origin renders, revalidations
# scheduled, body bytes, and the percentiles at POINTS in seconds.
MS_1, MS_101 = 0.000993481670816121, 0.10023049601039065  # the 1 ms and 101 ms buckets' midpoints
PINNED = {
    "isr": {"statuses": {"HIT": 2671, "MISS": 177}, "renders": 177, "revalidations": 0, "bytes": 7262233,
            "percentiles": (MS_1, MS_1, MS_101, 0.101)},
    "swr": {"statuses": {"HIT": 17713, "MISS": 21, "STALE": 166}, "renders": 187, "revalidations": 166,
            "bytes": 45455490, "percentiles": (MS_1, MS_1, MS_1, 0.101)},
    "dpr": {"statuses": {"HIT": 9395, "MISS": 105}, "renders": 105, "revalidations": 0, "bytes": 24181985,
            "percentiles": (MS_1, MS_1, MS_101, 0.101)},
}


class CountingScheduler(SerialScheduler):
    def __init__(self):
        super().__init__()
        self.submitted = 0

    def submit(self, fn):
        self.submitted += 1
        super().submit(fn)


def churn(monkeypatch):
    """Run the scenario; per worker, what it served, with the invariants checked on every response."""
    renders = [0]  # origin renders, counted where the worker looks its render functions up
    for name in ("render_index", "render_post"):
        def counted(source, _render=getattr(edge, name)):
            renders[0] += 1
            return _render(source)

        monkeypatch.setattr(edge, name, counted)

    rng = random.Random(SEED)
    posts = generate_posts(SEED, POSTS)
    paths = [INDEX_PATH, *(post_path(p) for p in posts)]
    rng.shuffle(paths)  # the shuffled order is the popularity rank
    picks = rng.choices(paths, weights=[1 / rank for rank in range(1, len(paths) + 1)], k=1 << 15)
    edits = [rng.sample(range(POSTS), EDITS) for _ in range(EPOCHS)]

    build = build_site(posts, built_at=0.0)
    bodies = {build.deploy_id: {path: page.body for path, page in build.pages.items()}}
    sides = {}
    for name, config in CONFIGS.items():
        scheduler = CountingScheduler()
        worker = EdgeWorker(config, scheduler)
        worker.deploy(build, posts)
        served = {"requests": 0, "statuses": dict.fromkeys(CacheStatus, 0), "renders": 0, "bytes": 0,
                  "hist": LatencyHistogram()}
        sides[name] = (worker, VirtualClock(), scheduler, served)

    def target(worker, is_dpr, live, served):
        statuses, hist = served["statuses"], served["hist"]

        def fetch(_path, clock):
            path = picks[served["requests"] % len(picks)]
            served["requests"] += 1
            resp = worker.handle_request(path, clock)
            assert resp.status == 200, path
            assert resp.body == bodies[resp.deploy_id][path], f"{path}: not deploy {resp.deploy_id}'s page"
            assert not is_dpr or resp.deploy_id == live, f"dpr served deploy {resp.deploy_id} while {live} was live"
            statuses[resp.cache_status] += 1
            served["bytes"] += len(resp.body)
            hist.record(resp.server_time)
            return resp

        return fetch

    load = BenchConfig(duration=EPOCH_S, connections=CONNECTIONS)
    for epoch in range(EPOCHS):
        if epoch:
            for post_id in edits[epoch]:
                posts[post_id] = make_post(SEED + 7919 * epoch, post_id)
            build, _ = incremental_rebuild(build, posts, built_at=float(epoch))
            bodies[build.deploy_id] = {path: page.body for path, page in build.pages.items()}
            for worker, _, _, _ in sides.values():
                worker.deploy(build, posts)
        for name, (worker, clock, scheduler, served) in sides.items():
            made, rendered = served["requests"], renders[0]
            report = run_load(target(worker, name == "dpr", build.deploy_id, served), load, clock, scheduler)
            assert report.total_responses == served["requests"] - made
            served["renders"] += renders[0] - rendered  # inline and in revalidations
    return {
        name: {
            "statuses": {s.value: n for s, n in served["statuses"].items() if n},
            "renders": served["renders"],
            "revalidations": scheduler.submitted,
            "bytes": served["bytes"],
            "percentiles": tuple(served["hist"].percentile(p) for p in POINTS),
        }
        for name, (_, _, scheduler, served) in sides.items()
    }


def test_churn_figures_are_pinned(monkeypatch):
    got = churn(monkeypatch)
    for name, figures in got.items():
        statuses = figures["statuses"]
        # Every render is a miss or a revalidation, and every revalidation succeeds.
        assert figures["renders"] == statuses.get("MISS", 0) + figures["revalidations"], name
    assert got == PINNED


def test_every_origin_render_calls_the_render_functions_through_deploy_purge_and_expiry(monkeypatch):
    # A render's markup is made once per post, but the worker still calls
    # render_post or render_index for every miss and every revalidation,
    # including renders of a post it has rendered before.
    calls = []
    for name in ("render_index", "render_post"):
        monkeypatch.setattr(edge, name, lambda source, _render=getattr(edge, name): calls.append(1) or _render(source))
    posts = generate_posts(SEED, 4)
    build = build_site(posts, built_at=0.0)
    paths = [INDEX_PATH, *(post_path(p) for p in posts)]
    for config in CONFIGS.values():
        scheduler, clock = CountingScheduler(), VirtualClock()
        worker = EdgeWorker(config, scheduler)
        worker.deploy(build, posts)
        calls.clear()
        misses = 0

        def request_all():
            nonlocal misses
            for path in paths:
                resp = worker.handle_request(path, clock)
                assert resp.body == bodies[path], path
                misses += resp.cache_status is CacheStatus.MISS
            scheduler.drain()

        bodies = {path: page.body for path, page in build.pages.items()}
        request_all()
        request_all()  # hits
        clock.sleep(1_500_000_000)  # past the ttl: ISR misses, SWR serves stale and revalidates
        request_all()
        edited = [*posts[:2], make_post(SEED + 1, 2), posts[3]]
        rebuilt, _ = incremental_rebuild(build, edited, built_at=1.0)
        worker.deploy(rebuilt, edited)
        if config.strategy is not Strategy.DPR:
            worker.purge_cache()
        bodies = {path: page.body for path, page in rebuilt.pages.items()}
        request_all()
        assert len(calls) == misses + scheduler.submitted, config.strategy
        assert len(calls) >= 2 * len(paths), config.strategy
