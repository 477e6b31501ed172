"""Command line entry points.

Commands
--------
build        render the site to disk and write/refresh a build manifest
serve        serve each configured variant on its own port until interrupted
bench        one sustained load run against a URL or in-process variant
audit        first-vs-warm audits of the configured pages, or of one page
experiment   audits + load runs for every variant; writes audit.md,
             audit.csv, percentiles.csv and summary.json
report       regenerate the table files from an existing summary.json

Exit codes: 0 success, 2 bad config/arguments, 3 I/O error,
4 port already taken, 5 target unreachable.
"""

from __future__ import annotations

import argparse
import errno
import json
import sys
import threading
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from . import __version__
from .bench import TargetUnreachableError, run_audit, run_load
from .config import ConfigError, ExperimentConfig, load as load_config, preset
from .content import generate_posts
from .experiment import (
    audit_entry,
    audit_table,
    bench_entry,
    bench_table,
    check_built,
    deployed,
    make_site,
    page_label,
    run_experiment,
    served,
    tables_from_summary,
    write_reports,
)
from .httpserve import VariantServer
from .ssg import build_site, export_site

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_PORT = 4
EXIT_UNREACHABLE = 5


# Each config-backed flag's argparse dest, which defaults to None, and the config field it overrides.
_OVERRIDES = {
    "seed": "seed", "base_port": "base_port",
    "duration": "bench.duration", "connections": "bench.connections", "path": "bench.target_path",
    "runs": "audit.runs", "purge": "audit.reset.purge", "cold": "audit.reset.cold",
}


def _with(settings, field: str, value):
    """``settings`` with the dotted ``field`` set, so every level's ``__post_init__`` checks it."""
    name, _, rest = field.partition(".")
    return replace(settings, **{name: _with(getattr(settings, name), rest, value) if rest else value})


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    """The loaded config, or the preset, with each config-backed flag that was given laid over it."""
    cfg = load_config(args.config) if args.config else preset(args.preset or "core-three")
    for dest, field in _OVERRIDES.items():
        if (value := getattr(args, dest, None)) is not None:
            cfg = _with(cfg, field, value)
    return cfg


def _pick_variant(cfg: ExperimentConfig, name: str | None):
    if name is None:
        return cfg.variants[0]
    for variant in cfg.variants:
        if variant.name == name:
            return variant
    known = ", ".join(v.name for v in cfg.variants)
    raise ConfigError(f"unknown variant {name!r}; configured: {known}")


def cmd_build(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    posts = generate_posts(cfg.seed, cfg.post_count, cfg.word_min, cfg.word_max)
    out = Path(args.out)
    manifest_path = out / "build-manifest.json"

    prev_pages: dict[str, str] = {}
    prev_deploy = 0
    if manifest_path.exists():
        try:
            prev = json.loads(manifest_path.read_text())
            prev_pages = dict(prev["pages"])
            prev_deploy = int(prev["deploy_id"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"existing manifest {manifest_path} is unreadable: {exc}") from exc

    build = build_site(posts, prev_deploy_id=prev_deploy)
    written = export_site(build, out)
    hashes = build.page_hashes()
    manifest = {
        "tool": "edgelab",
        "version": __version__,
        "seed": cfg.seed,
        "config_digest": cfg.digest(),
        "deploy_id": build.deploy_id,
        "source_digest": build.source_digest,
        "built_at": build.built_at,
        "pages": {path: hashes[path] for path in sorted(hashes)},
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    print(f"deploy {build.deploy_id}: wrote {len(written)} files to {out}")
    if prev_pages:
        changed = sorted(p for p, h in hashes.items() if prev_pages.get(p) != h)
        removed = sorted(set(prev_pages) - set(hashes))
        print(f"changed since deploy {prev_deploy}: {len(changed)} page(s)")
        for path in changed[:20]:
            print(f"  {path}")
        if len(changed) > 20:
            print(f"  ... and {len(changed) - 20} more")
        if removed:
            print(f"removed: {', '.join(removed)}")
    else:
        print(f"pages: {len(hashes)} (fresh build)")
    print(f"manifest: {manifest_path}")
    return EXIT_OK


def cmd_serve(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    last_port = cfg.base_port + len(cfg.variants) - 1
    if last_port > 65535:
        raise ConfigError(f"ports {cfg.base_port}-{last_port} are not all within 1-65535")
    build = make_site(cfg)

    servers: list[tuple[str, str, VariantServer]] = []
    try:
        try:
            for port, variant in enumerate(cfg.variants, cfg.base_port):
                worker, _, _ = deployed(variant, build)
                server = VariantServer(worker, args.host, port)
                servers.append((variant.name, variant.config.strategy.value, server))
        except OSError as exc:
            if exc.errno in (errno.EADDRINUSE, errno.EACCES):
                print(f"error: cannot bind: {exc}", file=sys.stderr)
                return EXIT_PORT
            raise

        for name, strategy, server in servers:
            server.start()
            print(f"{name:<8} {server.url}  strategy={strategy}")
        print("serving; press Ctrl-C to stop", flush=True)
        stop = threading.Event()
        while not stop.wait(0.5):
            pass
    except KeyboardInterrupt:
        pass
    finally:
        for _, _, server in servers:
            server.stop()
    print("stopped")
    return EXIT_OK


@contextmanager
def _target(cfg: ExperimentConfig, args: argparse.Namespace, name: str, pages: Sequence[str]):
    """What ``bench`` and ``audit`` run against, for the block: (target, clock, scheduler, label).

    A ``--variant`` is set up by ``experiment.served``, so on the wall clock it is served over
    loopback; its site must hold each of ``pages`` (the setting ``name``).
    """
    if args.url:
        if args.deterministic:
            raise ConfigError("deterministic runs need an in-process --variant, not a --url")
        yield args.url, None, None, args.url
        return
    variant = _pick_variant(cfg, args.variant)
    build = make_site(cfg, args.deterministic)
    check_built(name, pages, build)
    with served(variant, build, args.deterministic) as (target, clock, scheduler):
        yield target, clock, scheduler, variant.name


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    with _target(cfg, args, "bench.target_path", (cfg.bench.target_path,)) as (target, clock, scheduler, label):
        report = run_load(target, cfg.bench, clock, scheduler)

    print(
        f"responses: {report.total_responses}  errors: {report.error_count}  "
        f"rps: {report.requests_per_second:.1f}  "
        f"avg: {report.avg_latency * 1000:.3f} ms  "
        f"bytes/s: {report.bytes_per_second:.0f}"
    )
    print(bench_table([bench_entry(label, report)]).to_markdown(), end="")
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    name, pages = ("audit.pages", cfg.audit.pages) if args.page is None else ("page", (args.page,))
    entries = []
    with _target(cfg, args, name, pages) as (target, clock, scheduler, label):
        for page in pages:
            report = run_audit(target, page, cfg.effective_profile(), cfg.audit.runs, cfg.audit.reset, clock, scheduler)
            entries.append(audit_entry(f"{label} {page_label(page)}", report))
    print(audit_table(entries).to_markdown(), end="")
    for entry in entries:
        print(f"cache: {' '.join(entry['cache_statuses'])}  ({entry['label']})")
    return EXIT_OK


def cmd_experiment(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    out = args.out if args.out is not None else cfg.out_dir

    result = run_experiment(cfg, deterministic=args.deterministic, out_dir=out)
    _print_report(result.summary, result.files)
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.summary)
    try:
        summary = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    out = args.out if args.out is not None else path.parent
    try:
        files = write_reports(summary, out)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"{path} is not a summary file: missing {exc}") from exc
    _print_report(summary, files)
    return EXIT_OK


def _print_report(summary: dict, files: dict[str, Path]) -> None:
    audits, benches = tables_from_summary(summary)
    print(audits.to_markdown())
    print(benches.to_markdown(), end="")
    print()
    for name in sorted(files):
        print(f"wrote {files[name]}")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="experiment config JSON")
    common.add_argument(
        "--preset",
        choices=("core-three", "all-five"),
        help="built-in config when --config is not given (default: core-three)",
    )
    common.add_argument("--seed", type=int, help="override the content seed")

    parser = argparse.ArgumentParser(prog="edgelab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"edgelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", parents=[common], help="render the site to disk")
    p.add_argument("--out", default="site", help="export directory (default: site)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("serve", parents=[common], help="serve every variant over HTTP")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--base-port", type=int, help="first port (default from config)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("bench", parents=[common], help="run one sustained load run")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--url", help="base URL of a running variant")
    group.add_argument("--variant", help="configured variant to run in-process")
    p.add_argument("--path", help="request path (default from config)")
    p.add_argument("--duration", type=float, help="seconds (default from config)")
    p.add_argument("--connections", type=int, help="closed-loop connections")
    p.add_argument("--deterministic", action="store_true", help="virtual clock, reproducible")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("audit", parents=[common], help="first-vs-warm audit of each configured page")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--url", help="base URL of a running variant")
    group.add_argument("--variant", help="configured variant to run in-process")
    p.add_argument("--page", help="page to audit (default: each of the config's audit.pages)")
    p.add_argument("--runs", type=int, help="total runs per page (default from config)")
    p.add_argument("--no-purge", dest="purge", action="store_false", default=None, help="keep the cache before run 1")
    p.add_argument("--cold", action="store_true", default=None, help="mark the worker cold before run 1")
    p.add_argument("--deterministic", action="store_true", help="virtual clock, reproducible")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("experiment", parents=[common], help="audits + load runs, all variants")
    p.add_argument("--out", help="output directory (default from config)")
    p.add_argument("--deterministic", action="store_true", help="virtual clock, reproducible")
    p.add_argument("--duration", type=float, help="load run seconds override")
    p.add_argument("--connections", type=int, help="closed-loop connections override")
    p.add_argument("--runs", type=int, help="audit runs override")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("report", help="regenerate tables from a summary.json")
    p.add_argument("summary", nargs="?", default="out/summary.json")
    p.add_argument("--out", help="output directory (default: alongside the summary)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TargetUnreachableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNREACHABLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
