"""Command line entry points.

Commands
--------
build        render the site to disk and write/refresh a build manifest
serve        serve each configured variant on its own port (plus an
             optional raw content API) until interrupted
bench        one sustained load run against a URL or in-process variant
audit        one first-vs-warm audit of a page
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
from dataclasses import replace
from pathlib import Path

from . import __version__
from .bench import ResetPolicy, TargetUnreachableError, run_audit, run_load
from .clock import SerialScheduler, VirtualClock
from .config import ConfigError, ExperimentConfig, load as load_config, preset
from .content import generate_posts
from .edge import EdgeWorker
from .experiment import (
    audit_entry,
    audit_table,
    bench_entry,
    bench_table,
    page_label,
    run_experiment,
    tables_from_summary,
    write_reports,
)
from .httpserve import ContentServer, VariantServer
from .ssg import build_site, export_site

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_PORT = 4
EXIT_UNREACHABLE = 5


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    if getattr(args, "config", None):
        cfg = load_config(args.config)
    else:
        cfg = preset(getattr(args, "preset", None) or "core-three")
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _bench_config(cfg: ExperimentConfig, args: argparse.Namespace):
    bench = cfg.bench
    if getattr(args, "duration", None) is not None:
        bench = replace(bench, duration=args.duration)
    if getattr(args, "connections", None) is not None:
        bench = replace(bench, connections=args.connections)
    if getattr(args, "path", None) is not None:
        bench = replace(bench, target_path=args.path)
    return bench


def _pick_variant(cfg: ExperimentConfig, name: str | None):
    if name is None:
        return cfg.variants[0]
    for variant in cfg.variants:
        if variant.name == name:
            return variant
    known = ", ".join(v.name for v in cfg.variants)
    raise ConfigError(f"unknown variant {name!r}; configured: {known}")


def _deployed_worker(cfg: ExperimentConfig, variant, scheduler=None) -> EdgeWorker:
    posts = generate_posts(cfg.seed, cfg.post_count, cfg.word_min, cfg.word_max)
    worker = EdgeWorker(variant.config, scheduler)
    worker.deploy(build_site(posts), posts)
    return worker


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
    base_port = args.base_port if args.base_port is not None else cfg.base_port
    last_port = base_port + len(cfg.variants) - 1 + args.content_api
    if not 1 <= base_port <= last_port <= 65535:
        raise ConfigError(f"ports {base_port}-{last_port} are not all within 1-65535")
    posts = generate_posts(cfg.seed, cfg.post_count, cfg.word_min, cfg.word_max)
    build = build_site(posts)

    servers: list[tuple[str, str, VariantServer | ContentServer]] = []
    try:
        try:
            port = base_port
            for variant in cfg.variants:
                worker = EdgeWorker(variant.config)
                worker.deploy(build, posts)
                server = VariantServer(worker, args.host, port)
                servers.append((variant.name, variant.config.strategy.value, server))
                port += 1
            if args.content_api:
                servers.append(("content", "content-api", ContentServer(posts, host=args.host, port=port)))
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


def _target(cfg: ExperimentConfig, args: argparse.Namespace):
    """What ``bench`` and ``audit`` run against: (target, clock, scheduler, label)."""
    if args.url:
        if args.deterministic:
            raise ConfigError("deterministic runs need an in-process --variant, not a --url")
        return args.url, None, None, args.url
    variant = _pick_variant(cfg, args.variant)
    scheduler = SerialScheduler() if args.deterministic else None
    clock = VirtualClock() if args.deterministic else None
    return _deployed_worker(cfg, variant, scheduler), clock, scheduler, variant.name


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    bench = _bench_config(cfg, args)
    target, clock, scheduler, label = _target(cfg, args)
    report = run_load(target, bench, clock, scheduler)

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
    reset = ResetPolicy(purge=not args.no_purge, cold=args.cold)
    target, clock, _, label = _target(cfg, args)
    report = run_audit(
        target, args.page, cfg.effective_profile(), runs=args.runs, reset=reset, clock=clock
    )
    entry = audit_entry(f"{label} {page_label(args.page)}", report)
    print(audit_table([entry]).to_markdown(), end="")
    print(f"cache: {' '.join(report.cache_statuses)}")
    return EXIT_OK


def cmd_experiment(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    cfg = replace(cfg, bench=_bench_config(cfg, args))
    if args.runs is not None:
        cfg = replace(cfg, audit=replace(cfg.audit, runs=args.runs))
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
    p.add_argument("--content-api", action="store_true", help="also serve the raw content API")
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

    p = sub.add_parser("audit", parents=[common], help="first-vs-warm audit of one page")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--url", help="base URL of a running variant")
    group.add_argument("--variant", help="configured variant to run in-process")
    p.add_argument("--page", default="/", help="page to audit (default /)")
    p.add_argument("--runs", type=int, default=5, help="total runs (default 5)")
    p.add_argument("--no-purge", action="store_true", help="keep the cache before run 1")
    p.add_argument("--cold", action="store_true", help="mark the worker cold before run 1")
    p.add_argument("--deterministic", action="store_true", help="virtual clock, reproducible")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("experiment", parents=[common], help="audits + load runs, all variants")
    p.add_argument("--out", help="output directory (default from config)")
    p.add_argument("--deterministic", action="store_true", help="virtual clock, reproducible")
    p.add_argument("--duration", type=float, help="load run seconds override")
    p.add_argument("--connections", type=int, help="closed-loop connections override")
    p.add_argument("--runs", type=int, help="audit runs override")
    p.add_argument("--path", help=argparse.SUPPRESS)
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
