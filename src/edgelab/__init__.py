"""edgelab: a small lab for comparing edge rendering strategies.

Builds a deterministic fake blog, serves it through a simulated edge
worker under five rendering strategies (static, ssr, isr, swr, dpr),
and measures first-request vs warm behaviour plus sustained-load
latency percentiles — either on a virtual clock (bit-reproducible) or
over real loopback HTTP.
"""

__version__ = "0.1.0"

from .bench import AuditReport, BenchConfig, BenchReport, LatencyHistogram, run_audit, run_load
from .clock import SerialScheduler, SystemClock, VirtualClock
from .config import ConfigError, ExperimentConfig, preset
from .content import Post, UpstreamConfig, content_digest, generate_posts, upstream_fetch
from .edge import CacheStatus, EdgeWorker, Response, Strategy, StrategyConfig
from .netmodel import PROFILES, ThrottleProfile, fcp_proxy, transfer_time
from .ssg import SiteBuild, build_site, export_site, incremental_rebuild

__all__ = [
    "__version__",
    "AuditReport", "BenchConfig", "BenchReport", "LatencyHistogram",
    "run_audit", "run_load",
    "SerialScheduler", "SystemClock", "VirtualClock",
    "ConfigError", "ExperimentConfig", "preset",
    "Post", "UpstreamConfig", "content_digest", "generate_posts", "upstream_fetch",
    "CacheStatus", "EdgeWorker", "Response", "Strategy", "StrategyConfig",
    "PROFILES", "ThrottleProfile", "fcp_proxy", "transfer_time",
    "SiteBuild", "build_site", "export_site", "incremental_rebuild",
]
