"""Static site builder: index plus one page per post, with incremental rebuild.

Templates are plain string interpolation embedded here; there is no
template engine. Rendering is deterministic, so a page's content hash
doubles as its identity and incremental rebuilds can be checked
page-for-page against a fresh build. The hash is computed from the body
when it is read (``page_hashes`` for the build manifest), so a render
pays no sha256. Text is passed through ``html.escape`` only when it
contains a character that escaping changes.

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
from html import escape
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

from .content import Post, content_digest

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
    # escape()'s five replace() passes.
    if "&" in text or "<" in text or ">" in text or '"' in text or "'" in text:
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
    """Immutable snapshot of a deploy: every page of the site at one instant,
    and the posts they were rendered from."""

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


def render_index(posts: Iterable[Post]) -> RenderedPage:
    """Index page at "/": one anchor per post, in id order."""
    items = "".join(
        f'<li><a href="{POST_PATH_PREFIX}{p.slug}">{_escape(p.title)}</a></li>\n' for p in posts
    )
    return RenderedPage(INDEX_PATH, _INDEX_TEMPLATE.format(items=items).encode())


def render_post(post: Post) -> RenderedPage:
    html = _POST_TEMPLATE.format(title=_escape(post.title), body=_escape(post.body))
    return RenderedPage(post_path(post), html.encode())


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
        if prev_by_path.get(path) == post:
            pages[path] = prev.pages[path]
        else:
            pages[path] = render_post(post)
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
    the returned path set is exactly the pages that were re-rendered.
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
