"""Site generator: rendering, incremental rebuilds, disk export."""

import hashlib
import re
import sys
import threading
from dataclasses import asdict, replace
from html import escape

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_content import MASK64, reference_post

from edgelab.clock import SerialScheduler, VirtualClock
from edgelab.content import Post, content_digest, generate_posts, make_post
from edgelab.edge import CacheStatus, EdgeWorker, Strategy, StrategyConfig
from edgelab.ssg import (
    RenderedPage,
    build_site,
    export_site,
    incremental_rebuild,
    post_path,
    render_index,
    render_post,
)

HREF = re.compile(r'<a href="(/posts/[^"]+)"')


def test_index_links_every_post_in_id_order():
    posts = generate_posts(42, 100)
    html = render_index(posts).body.decode()
    assert HREF.findall(html) == [post_path(p) for p in posts]


def test_empty_index_is_still_a_page():
    page = render_index([])
    assert HREF.findall(page.body.decode()) == []
    assert b"<html" in page.body


def test_index_hash_is_deterministic():
    posts = generate_posts(1, 10)
    assert render_index(posts).content_hash == render_index(posts).content_hash


def test_post_path_scheme():
    posts = generate_posts(42, 1)
    assert post_path(posts[0]) == "/posts/post-0"
    assert render_post(posts[0]).path == "/posts/post-0"


def test_post_body_appears_verbatim():
    post = generate_posts(11, 1)[0]
    assert post.body in render_post(post).body.decode()


def test_render_post_deterministic():
    post = generate_posts(2, 1)[0]
    assert render_post(post).content_hash == render_post(post).content_hash


@pytest.mark.parametrize("char", ["&", "<", ">", '"', "'"])
@pytest.mark.parametrize("field", ["title", "body"])
def test_html_is_escaped(char, field):
    text = f"a {char} b"
    post = replace(Post(id=0, slug="post-0", title="title", body="body"), **{field: text})
    pages = [render_post(post).body.decode()]
    if field == "title":
        pages.append(render_index([post]).body.decode())
    for page in pages:
        assert text not in page
        assert escape(text) in page


def test_site_build_is_pinned():
    # Recorded before renders skipped escape() and source keys stopped
    # being digests: the manifest's page hashes and source digest.
    build = build_site(generate_posts(42, 100), built_at=0.0)
    hashes = build.page_hashes()
    manifest = "\n".join(f"{path} {hashes[path]}" for path in sorted(hashes))
    manifest += "\n" + build.source_digest
    assert hashlib.sha256(manifest.encode()).hexdigest() == (
        "afb21bb069a94a1c2fb993ce1129e07a7800cda969336f8e24772c6afff321e1"
    )
    assert build.source_digest == "1270e14fa17d9445ab88618aeea8fe81470787e2fdfa932fff4e0051900351e5"


def test_builds_keep_their_posts_and_digest_them_only_when_read(monkeypatch):
    import edgelab.ssg as ssg

    def forbidden(posts):
        raise AssertionError("content_digest called during a build")

    posts = generate_posts(42, 100)
    edited = list(posts)
    edited[7] = replace(posts[7], body="edited")
    monkeypatch.setattr(ssg, "content_digest", forbidden)
    build = build_site(posts, built_at=0.0)
    rebuild, rebuilt = incremental_rebuild(build, edited, built_at=1.0)
    monkeypatch.undo()
    assert build.posts == tuple(posts)
    assert rebuild.posts == tuple(edited)
    assert rebuilt == {post_path(posts[7])}
    assert build.source_digest == "1270e14fa17d9445ab88618aeea8fe81470787e2fdfa932fff4e0051900351e5"
    assert rebuild.source_digest == content_digest(edited)


def test_build_site_page_count():
    posts = generate_posts(42, 100)
    build = build_site(posts)
    assert len(build.pages) == 101
    assert "/" in build.pages
    assert all(post_path(p) in build.pages for p in posts)
    assert build_site([]).pages.keys() == {"/"}


def test_rebuild_unchanged_same_hashes_new_deploy_id(posts10):
    b1 = build_site(posts10)
    b2 = build_site(posts10, prev_deploy_id=b1.deploy_id)
    assert b2.page_hashes() == b1.page_hashes()
    assert b2.deploy_id == b1.deploy_id + 1


def test_incremental_noop(posts10, build10):
    new_build, rebuilt = incremental_rebuild(build10, posts10)
    assert rebuilt == frozenset()
    assert new_build.page_hashes() == build10.page_hashes()
    assert new_build.deploy_id == build10.deploy_id + 1


def test_incremental_body_edit_rebuilds_only_that_page(posts10, build10):
    posts = list(posts10)
    posts[3] = replace(posts[3], body=posts[3].body + " addendum")
    new_build, rebuilt = incremental_rebuild(build10, posts)
    assert rebuilt == {post_path(posts[3])}
    assert new_build.page_hashes() == build_site(posts).page_hashes()


def test_incremental_title_edit_also_rebuilds_index(posts10, build10):
    posts = list(posts10)
    posts[0] = replace(posts[0], title=posts[0].title + " v2")
    new_build, rebuilt = incremental_rebuild(build10, posts)
    assert rebuilt == {post_path(posts[0]), "/"}
    assert new_build.page_hashes() == build_site(posts).page_hashes()


def test_incremental_multiple_edits_match_fresh_build(posts10, build10):
    posts = list(posts10)
    posts[1] = replace(posts[1], body="rewritten")
    posts[4] = replace(posts[4], title="New title")
    posts[9] = replace(posts[9], body="also rewritten")
    new_build, rebuilt = incremental_rebuild(build10, posts)
    assert rebuilt == {post_path(posts[1]), post_path(posts[4]), post_path(posts[9]), "/"}
    fresh = build_site(posts)
    assert new_build.page_hashes() == fresh.page_hashes()


def test_incremental_reuses_unchanged_page_objects(posts10, build10):
    posts = list(posts10)
    posts[2] = replace(posts[2], body="different")
    new_build, _ = incremental_rebuild(build10, posts)
    assert new_build.pages[post_path(posts[5])] is build10.pages[post_path(posts[5])]


def test_export_layout_and_bytes(tmp_path, posts10, build10):
    written = export_site(build10, tmp_path)
    assert len(written) == len(build10.pages) == 11
    assert (tmp_path / "index.html").read_bytes() == build10.pages["/"].body
    for post in posts10:
        f = tmp_path / "posts" / post.slug / "index.html"
        assert f.read_bytes() == build10.pages[post_path(post)].body


def test_pages_mapping_is_read_only(build10):
    with pytest.raises(TypeError):
        build10.pages["/"] = None


@settings(max_examples=30, deadline=None)
@given(
    seed=st.one_of(st.sampled_from([0, MASK64]), st.integers(min_value=0, max_value=MASK64)),
    count=st.integers(min_value=1, max_value=6),
    bounds=st.tuples(st.integers(1, 600), st.integers(1, 600)).map(sorted),
)
def test_a_built_page_renders_on_its_first_read_to_the_reference_bytes(seed, count, bounds):
    build = build_site(generate_posts(seed, count, *bounds), built_at=0.0)
    for post_id in range(count):
        ref = render_post(reference_post(seed, post_id, *bounds))
        page = build.pages[ref.path]
        assert page.body == ref.body
        assert page == ref and hash(page) == hash(ref) and repr(page) == repr(ref)
        # Once read, the bytes are a plain instance attribute, as in a page rendered at once.
        assert vars(page) == vars(ref)


def test_building_and_rebuilding_draws_and_renders_no_post_page(spy):
    draws = spy(Post.body, "make")
    renders = spy(RenderedPage.body, "make")
    posts = generate_posts(42, 20)
    build = build_site(posts, built_at=0.0)
    again, rebuilt = incremental_rebuild(build, posts, built_at=1.0)
    assert rebuilt == frozenset() and (draws, renders) == ([], [])
    # A page reads its post's body once; a rebuild compares unchanged posts by identity.
    assert again.pages["/posts/post-3"].body == render_post(reference_post(42, 3, 50, 500)).body
    assert len(draws) == len(renders) == 1


def test_concurrent_first_reads_of_a_post_and_a_page_agree():
    # Eight threads read one fresh post's body and one fresh page's body
    # for the first time at once: none may find the value missing while
    # another stores it.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for post_id in range(20):
            want_post = reference_post(42, post_id, 50, 500)
            want_page = render_post(reference_post(7, post_id, 50, 500))
            post = make_post(42, post_id)
            page = build_site([make_post(7, i) for i in range(post_id + 1)]).pages[want_page.path]
            start = threading.Barrier(8)
            seen, errors = [], []

            def first_read():
                try:
                    start.wait(timeout=5)
                    seen.append((post.body, page.body))
                except Exception as exc:  # reported below with the thread's peers
                    errors.append(exc)

            threads = [threading.Thread(target=first_read) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=5)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert seen == [(want_post.body, want_page.body)] * 8
            assert vars(post) == vars(want_post) and vars(page) == vars(want_page)
    finally:
        sys.setswitchinterval(interval)


def test_a_post_is_rendered_once_and_an_edited_post_anew():
    post = make_post(42, 3)
    page = render_post(post)
    assert render_post(post).body is page.body
    index = render_index([post]).body
    edited = replace(post, body="an edited <body>", title="A new & title")
    assert render_post(edited).body == render_post(Post(3, "post-3", "A new & title", "an edited <body>")).body
    assert b"an edited &lt;body&gt;" in render_post(edited).body
    assert b"A new &amp; title" in render_index([edited]).body
    assert render_post(post) is page and render_index([post]).body == index


def test_a_build_and_an_origin_render_of_one_post_serve_one_bytes_object():
    posts = generate_posts(42, 4)
    build = build_site(posts, built_at=0.0)
    worker = EdgeWorker(StrategyConfig(Strategy.ISR), SerialScheduler())
    worker.deploy(build, posts)
    clock = VirtualClock()
    built = build.pages["/posts/post-1"].body  # the build's page read before the worker renders it
    miss = worker.handle_request("/posts/post-1", clock)
    assert miss.cache_status is CacheStatus.MISS and miss.body is built
    miss = worker.handle_request("/posts/post-2", clock)  # and rendered by the worker first
    assert miss.cache_status is CacheStatus.MISS and build.pages["/posts/post-2"].body is miss.body
    assert worker.handle_request("/posts/post-2", clock).body is miss.body


def test_rendering_a_post_leaves_its_value_alone():
    post, twin = make_post(42, 5), make_post(42, 5)
    render_post(post)
    render_index([post])
    assert post == twin and hash(post) == hash(twin)
    assert repr(post) == repr(twin) and asdict(post) == asdict(twin)


def test_concurrent_first_renders_of_a_post_agree():
    # Eight threads make the first render of one fresh post, and of an
    # index of fresh posts, at once.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for post_id in range(20):
            want_post = render_post(reference_post(42, post_id, 50, 500)).body
            want_index = render_index([reference_post(42, i, 50, 500) for i in range(post_id + 1)]).body
            post, posts = make_post(42, post_id), generate_posts(42, post_id + 1)
            start = threading.Barrier(8)
            seen, errors = [], []

            def first_render():
                try:
                    start.wait(timeout=5)
                    seen.append((render_post(post).body, render_index(posts).body))
                except Exception as exc:  # reported below with the thread's peers
                    errors.append(exc)

            threads = [threading.Thread(target=first_render) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=5)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert seen == [(want_post, want_index)] * 8
    finally:
        sys.setswitchinterval(interval)
