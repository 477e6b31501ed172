"""End-to-end experiment: build, deploy, audit, load, then report files.

For every configured variant the protocol is: apply the reset policy
and audit each configured page (run 1 reported separately from the
rest), then reset again and drive the sustained closed-loop load run.
Audit and load phases never overlap for a variant.

Outputs in the chosen directory:

    audit.md         aligned-column audit table
    audit.csv        same rows as CSV
    percentiles.csv  one row per percentile, one column per variant
    summary.json     machine-readable superset of the above

Every output embeds the seed, the config digest and the tool version.
In deterministic mode the whole experiment runs in-process against a
virtual clock and outputs are byte-for-byte reproducible; otherwise
variants are served over loopback HTTP and measured on the wall clock.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from . import __version__
from .bench import PERCENTILE_POINTS, AuditReport, BenchReport, Target, apply_reset, check_page, run_audit, run_load
from .clock import SYSTEM_CLOCK, Clock, SerialScheduler, VirtualClock
from .config import ExperimentConfig, VariantSpec
from .content import generate_posts
from .edge import EdgeWorker
from .httpserve import VariantServer
from .ssg import POST_PATH_PREFIX, SiteBuild, build_site


def page_label(path: str) -> str:
    if path == "/":
        return "index"
    return path.removeprefix(POST_PATH_PREFIX).strip("/") or path


def check_built(name: str, pages: Sequence[str], build: SiteBuild) -> None:
    """Raise ValueError, naming ``name``, for the first of ``pages`` that is no page of ``build``.

    A page path that ``bench.check_page`` rejects is named as such. Any
    other missing page would answer 404: an audit would call the target
    unreachable and a load run would time 404s, when the settings name
    a page their own site lacks.
    """
    for page in pages:
        check_page(name, page)
        if page not in build.pages:
            raise ValueError(
                f"{name} {page!r} is not a page of the built site, which has {len(build.pages)} page(s)"
            )


def _round_ms(seconds: float) -> float:
    return round(seconds * 1000.0, 6)


# AuditMetric fields, in table column order.
_AUDIT_STATS = ("run_1", "median_rest", "average_rest")


@dataclass
class ExperimentResult:
    audits: list[tuple[str, AuditReport]]
    benches: list[tuple[str, BenchReport]]
    summary: dict
    files: dict[str, Path]


def audit_entry(label: str, rep: AuditReport) -> dict:
    """One row of the audit table, as stored in ``summary.json``."""
    return {
        "label": label,
        "page": rep.page,
        "runs": rep.runs,
        "cache_statuses": list(rep.cache_statuses),
        "server_time_ms": {k: _round_ms(getattr(rep.server_time, k)) for k in _AUDIT_STATS},
        "fcp_proxy_ms": {k: _round_ms(getattr(rep.fcp_proxy, k)) for k in _AUDIT_STATS},
    }


def bench_entry(name: str, rep: BenchReport) -> dict:
    """One column of the percentile table, as stored in ``summary.json``."""
    return {
        "variant": name,
        "requests_per_second": round(rep.requests_per_second, 6),
        "avg_latency_ms": _round_ms(rep.avg_latency),
        "bytes_per_second": round(rep.bytes_per_second, 6),
        "total_responses": rep.total_responses,
        "error_count": rep.error_count,
        "duration": round(rep.duration, 6),
        "connections": rep.connections,
        "percentiles_ms": {
            f"{p:g}": _round_ms(rep.percentiles[p]) for p in PERCENTILE_POINTS
        },
    }


def build_summary(
    cfg: ExperimentConfig,
    deterministic: bool,
    audits: list[tuple[str, AuditReport]],
    benches: list[tuple[str, BenchReport]],
) -> dict:
    profile = cfg.effective_profile()
    return {
        "tool": "edgelab",
        "version": __version__,
        "deterministic": deterministic,
        "seed": cfg.seed,
        "config_digest": cfg.digest(),
        "throttle_profile": cfg.throttle_profile,
        "render_overhead": profile.render_overhead,
        "connections": cfg.bench.connections,
        "reset_policy": {"purge": cfg.audit.reset.purge, "cold": cfg.audit.reset.cold},
        "audits": [audit_entry(label, rep) for label, rep in audits],
        "bench": [bench_entry(name, rep) for name, rep in benches],
        "config": cfg.to_dict(),
    }


@dataclass(frozen=True)
class ComparisonTable:
    kind: str  # "audit" or "bench"
    headers: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def to_markdown(self) -> str:
        widths = [
            max(len(self.headers[i]), *(len(row[i]) for row in self.rows)) if self.rows else len(self.headers[i])
            for i in range(len(self.headers))
        ]
        def line(cells: Sequence[str]) -> str:
            return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
        out = [line(self.headers), "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
        out.extend(line(row) for row in self.rows)
        return "\n".join(out) + "\n"

    def to_csv(self) -> str:
        lines = [",".join(self.headers)]
        lines.extend(",".join(row) for row in self.rows)
        return "\n".join(lines) + "\n"


def audit_table(entries: Sequence[dict]) -> ComparisonTable:
    """One row per audit entry: run 1, median and average of the rest, for fcp and server time."""
    runs = max((a["runs"] for a in entries), default=2)
    rest = f"2-{runs}"
    headers = (
        "variant",
        "fcp_run1_ms", f"fcp_{rest}_med_ms", f"fcp_{rest}_avg_ms",
        "srt_run1_ms", f"srt_{rest}_med_ms", f"srt_{rest}_avg_ms",
    )
    rows = tuple(
        (a["label"],)
        + tuple(f"{a[m][k]:.3f}" for m in ("fcp_proxy_ms", "server_time_ms") for k in _AUDIT_STATS)
        for a in entries
    )
    return ComparisonTable(kind="audit", headers=headers, rows=rows)


def bench_table(entries: Sequence[dict]) -> ComparisonTable:
    """One row per percentile, one column per bench entry."""
    headers = ("percentile",) + tuple(b["variant"] for b in entries)
    rows = tuple(
        (f"{p:g}",) + tuple(f"{b['percentiles_ms'][f'{p:g}']:.3f}" for b in entries)
        for p in PERCENTILE_POINTS
    )
    return ComparisonTable(kind="bench", headers=headers, rows=rows)


def tables_from_summary(summary: dict) -> tuple[ComparisonTable, ComparisonTable]:
    """Rebuild the report tables from a summary dict (used by `report` too)."""
    return audit_table(summary["audits"]), bench_table(summary["bench"])


def write_reports(summary: dict, out_dir: Path | str) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    audit_table, bench_table = tables_from_summary(summary)
    reset = summary["reset_policy"]
    intro = (
        f"tool: {summary['tool']} {summary['version']}  "
        f"seed: {summary['seed']}  config: {summary['config_digest'][:12]}  "
        f"profile: {summary['throttle_profile']} "
        f"(render_overhead {summary['render_overhead']} s)  "
        f"connections: {summary['connections']}  "
        f"reset: purge={reset['purge']} cold={reset['cold']}\n\n"
    )
    files = {
        "audit.md": out / "audit.md",
        "audit.csv": out / "audit.csv",
        "percentiles.csv": out / "percentiles.csv",
    }
    files["audit.md"].write_text(intro + audit_table.to_markdown())
    files["audit.csv"].write_text(audit_table.to_csv())
    files["percentiles.csv"].write_text(bench_table.to_csv())
    return files


def make_site(cfg: ExperimentConfig, deterministic: bool = False) -> SiteBuild:
    """The site build of the config's posts, which it keeps.

    A deterministic build is stamped at time 0, and each post's body and
    page are left to be made on their first read: virtual time does not see
    CPU. A wall-clock build reads every page before it returns, which draws
    every body, so no timed request makes a draw or a render that a build
    would have made.
    """
    posts = generate_posts(cfg.seed, cfg.post_count, cfg.word_min, cfg.word_max)
    build = build_site(posts, built_at=0.0 if deterministic else None)
    if not deterministic:
        for page in build.pages.values():
            page.body  # the read renders the page
    return build


def deployed(
    variant: VariantSpec, build: SiteBuild, deterministic: bool = False
) -> tuple[EdgeWorker, Clock, SerialScheduler | None]:
    """``variant``'s worker with ``build`` deployed, its posts the origin, and the clock and scheduler that run it.

    Deterministic: a VirtualClock, and a SerialScheduler the runners drain. Else wall time and the worker's threads.
    """
    scheduler = SerialScheduler() if deterministic else None
    worker = EdgeWorker(variant.config, scheduler)
    worker.deploy(build, build.posts)
    return worker, VirtualClock() if deterministic else SYSTEM_CLOCK, scheduler


@contextmanager
def served(
    variant: VariantSpec, build: SiteBuild, deterministic: bool = False
) -> Iterator[tuple[Target, Clock, SerialScheduler | None]]:
    """``variant`` deployed with ``build`` as a measured run reaches it: ``(target, clock, scheduler)``.

    Deterministic: the worker itself, its VirtualClock and its SerialScheduler. Else, on the wall clock,
    the URL of a ``VariantServer`` that serves the worker over loopback while the block runs.
    """
    worker, clock, scheduler = deployed(variant, build, deterministic)
    if deterministic:
        yield worker, clock, scheduler
        return
    with VariantServer(worker) as server:
        yield server.url, clock, scheduler


def run_experiment(
    cfg: ExperimentConfig,
    deterministic: bool = False,
    out_dir: Path | str | None = None,
) -> ExperimentResult:
    build = make_site(cfg, deterministic)
    check_built("audit.pages", cfg.audit.pages, build)
    check_built("bench.target_path", (cfg.bench.target_path,), build)
    profile = cfg.effective_profile()

    audits: list[tuple[str, AuditReport]] = []
    benches: list[tuple[str, BenchReport]] = []
    for variant in cfg.variants:
        # A wall-clock variant is served over loopback only for its own audit and load phases.
        with served(variant, build, deterministic) as (target, clock, scheduler):
            for page in cfg.audit.pages:
                rep = run_audit(target, page, profile, cfg.audit.runs, cfg.audit.reset, clock, scheduler)
                audits.append((f"{variant.name} {page_label(page)}", rep))

            apply_reset(target, cfg.audit.reset)
            benches.append((variant.name, run_load(target, cfg.bench, clock, scheduler)))

    summary = build_summary(cfg, deterministic, audits, benches)
    files: dict[str, Path] = {}
    if out_dir is not None:
        files = write_reports(summary, out_dir)
        summary_path = Path(out_dir) / "summary.json"
        summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        files["summary.json"] = summary_path
    return ExperimentResult(audits=audits, benches=benches, summary=summary, files=files)
