"""Static site builder: index plus one page per post, with incremental rebuild.

Templates are plain string interpolation embedded here; there is no
template engine. Rendering is deterministic, so a page's content hash
doubles as its identity and incremental rebuilds can be checked
page-for-page against a fresh build. The hash is computed from the body
when it is read (``page_hashes`` for the build manifest), so a render
pays no sha256. Text is passed through ``html.escape`` only when it
contains a character that escaping changes.

A build renders the index at once, since it needs only titles. Each post
page it makes anew is rendered when its ``body`` is first read
(``content.Deferred``), to the bytes ``render_post`` gives, so a run
renders (and draws the body of) only the posts it reads.

Markup is made once per post: ``render_post`` keeps its page, and
``render_index`` each post's ``<li>`` line, in the ``Post``'s instance
dict (not a field, so ``==``, ``hash`` and ``repr`` do not change). An
edited post is a new ``Post`` and renders anew. A build's page and every
origin render of a post share one bytes object, and the edge worker
still calls a render function once per origin render.

A build keeps the posts it was rendered from. An incremental rebuild
decides what to re-render by comparing each page's inputs with the
previous build's: the ``Post`` itself for a post page and the
``(id, slug, title)`` triples of every post for the index. The content
digest of a build is computed only when read.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

from .content import Deferred, Post, content_digest

INDEX_PATH = "/"
POST_PATH_PREFIX = "/posts/"

_INDEX_TEMPLATE = """<!doctype html>
<html>
<head><meta charset="utf-8"><title>Blog</title></head>
<body>
<main>
<h1>Blog</h1>
<ul>
{items}</ul>
</main>
</body>
</html>
"""

_POST_TEMPLATE = """<!doctype html>
<html>
<head><meta charset="utf-8"><title>{title}</title></head>
<body>
<main>
<article>
<h1>{title}</h1>
<p>{body}</p>
</article>
<p><a href="/">Back to index</a></p>
</main>
</body>
</html>
"""


def _escape(text: str) -> str:
    # Most text has nothing to escape; five memchr scans are cheaper than
    # escape()'s five replace() passes, and ``html`` is imported only when
    # a page needs it.
    if "&" in text or "<" in text or ">" in text or '"' in text or "'" in text:
        from html import escape

        return escape(text)
    return text


@dataclass(frozen=True)
class RenderedPage:
    path: str
    body: bytes

    @property
    def content_hash(self) -> str:
        """sha256 of ``body``, computed on each read."""
        return hashlib.sha256(self.body).hexdigest()


@dataclass(frozen=True)
class SiteBuild:
    """Immutable snapshot of a deploy: every page of the site, and the posts
    they render from. A post page renders on its first read, to the same
    bytes whenever that read comes."""

    deploy_id: int
    pages: Mapping[str, RenderedPage]
    built_at: float
    posts: tuple[Post, ...]

    @property
    def source_digest(self) -> str:
        """``content_digest`` of ``posts``, computed on each read."""
        return content_digest(self.posts)

    def page_hashes(self) -> dict[str, str]:
        return {path: page.content_hash for path, page in self.pages.items()}


def post_path(post: Post) -> str:
    return f"{POST_PATH_PREFIX}{post.slug}"


def _index_line(post: Post) -> str:
    d = post.__dict__
    line = d.get("_index_line")
    if line is None:
        line = d["_index_line"] = f'<li><a href="{POST_PATH_PREFIX}{post.slug}">{_escape(post.title)}</a></li>\n'
    return line


def render_index(posts: Iterable[Post]) -> RenderedPage:
    """Index page at "/": one anchor per post, in id order, each kept on its post."""
    items = "".join(map(_index_line, posts))
    return RenderedPage(INDEX_PATH, _INDEX_TEMPLATE.format(items=items).encode())


def render_post(post: Post) -> RenderedPage:
    """The page of ``post``, made on its first render and kept on the post."""
    d = post.__dict__
    page = d.get("_page")
    if page is None:
        html = _POST_TEMPLATE.format(title=_escape(post.title), body=_escape(post.body))
        page = d["_page"] = RenderedPage(post_path(post), html.encode())
    return page


def _post_page_body(post: Post) -> bytes:
    return render_post(post).body


# A build's post pages render on their first read.
_POST_PAGE = Deferred(RenderedPage, "body", _post_page_body)


def _index_links(posts: Iterable[Post]) -> list[tuple[int, str, str]]:
    # Only fields that appear in index links; body edits must not touch "/".
    return [(p.id, p.slug, p.title) for p in posts]


def _render_site(
    posts: list[Post],
    prev: SiteBuild | None,
    deploy_id: int,
    built_at: float | None,
) -> tuple[SiteBuild, frozenset[str]]:
    """Render the pages whose inputs differ from ``prev``'s; reuse the rest."""
    prev_posts = () if prev is None else prev.posts
    pages: dict[str, RenderedPage] = {}
    rebuilt: set[str] = set()

    if prev is not None and _index_links(posts) == _index_links(prev_posts):
        pages[INDEX_PATH] = prev.pages[INDEX_PATH]
    else:
        pages[INDEX_PATH] = render_index(posts)
        rebuilt.add(INDEX_PATH)

    prev_by_path = {post_path(p): p for p in prev_posts}
    for post in posts:
        path = post_path(post)
        # ``is`` first: comparing a post with itself would draw its body.
        if (old := prev_by_path.get(path)) is post or old == post:
            pages[path] = prev.pages[path]
        else:
            pages[path] = _POST_PAGE.new((post,), path=path)
            rebuilt.add(path)

    return (
        SiteBuild(
            deploy_id=deploy_id,
            pages=MappingProxyType(pages),
            built_at=time.time() if built_at is None else built_at,
            posts=tuple(posts),
        ),
        frozenset(rebuilt),
    )


def build_site(
    posts: list[Post],
    prev_deploy_id: int = 0,
    built_at: float | None = None,
) -> SiteBuild:
    """Render every page from scratch. ``deploy_id`` is prev + 1."""
    return _render_site(posts, None, prev_deploy_id + 1, built_at)[0]


def incremental_rebuild(
    prev: SiteBuild,
    posts: list[Post],
    built_at: float | None = None,
) -> tuple[SiteBuild, frozenset[str]]:
    """Rebuild only pages whose source changed, reusing the rest from ``prev``.

    Output is page-for-page identical to a fresh ``build_site(posts)``;
    the returned path set is exactly the pages made anew, which render
    (the index at once, a post page on its first read) rather than reuse.
    """
    return _render_site(posts, prev, prev.deploy_id + 1, built_at)


def export_site(build: SiteBuild, dest: Path | str) -> list[Path]:
    """Write the page map to disk for static file serving.

    Layout: "/" -> index.html, "/posts/<slug>" -> posts/<slug>/index.html.
    File bytes are identical to the in-memory page bodies.
    """
    dest = Path(dest)
    written: list[Path] = []
    for path, page in sorted(build.pages.items()):
        rel = "index.html" if path == INDEX_PATH else f"{path.lstrip('/')}/index.html"
        target = dest / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(page.body)
        written.append(target)
    return written
