"""Layer boundaries: where the tracer wraps, and what the spans become.

A layer is named after the module it lives in.  :data:`WRAPS` lists the
public entry points the traced run wraps (``src/`` is never edited; the
wrappers are installed on the imported classes in the benchmark process
only).  :data:`PER_LAYER` is the catalogue of per-layer metrics with the
rule that derives each from the span table or from the program's own
``stats()`` / ``census()`` counters.

Every per-layer *time* is self time, so the layers under one root add up
to the root: a per-round ``*_s`` metric is the median over the measured
rounds of the layer's self time summed within the round; a per-request
``*_ms_p50`` / ``*_ms_p95`` is that percentile of the layer's self time
per call; a set-up or maintenance ``*_s`` is the layer's summed self
time in that phase.  A metric with nothing to measure on a workload
(reads on ``ingest``, rounds on ``serve-*``) reads 0.
"""

from __future__ import annotations

import importlib
from typing import Dict, Optional, Sequence, Tuple

from . import stats
from .sizes import OPS
from .tracer import Span, SpanTable, Tracer

#: (module, class or None for a module attribute, attribute, span name)
WRAPS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.core.plan_cache", "PlanCache", "plan", "core.plan_cache.plan"),
    ("repro.core.collectors", "SpsCollector", "collect",
     "core.collectors.sps"),
    ("repro.core.collectors", "AdvisorCollector", "collect",
     "core.collectors.advisor"),
    ("repro.core.collectors", "PriceCollector", "collect",
     "core.collectors.price"),
    ("repro.core.resilience", "ResilientExecutor", "call",
     "core.resilience.call"),
    # the simulator side of a round: the quota-enforcing client, the
    # deferred score evaluation, the advisor scrape, the price engine
    ("repro.cloudsim.ec2_api", "Ec2Client",
     "get_spot_placement_scores_deferred", "cloudsim.api"),
    ("repro.cloudsim.ec2_api", "DeferredScoreCall", "rows_at",
     "cloudsim.api"),
    ("repro.core.collectors", "SpotInfoScraper", "fetch", "cloudsim.api"),
    ("repro.cloudsim.advisor", "AdvisorEngine", "interruption_ratio",
     "cloudsim.api"),
    ("repro.cloudsim.pricing", "PricingEngine", "spot_price",
     "cloudsim.api"),
    ("repro.core.archive", "SpotLakeArchive", "commit_round",
     "core.archive.commit_round"),
    ("repro.core.archive", "SpotLakeArchive", "apply_retention",
     "core.archive.retention"),
    ("repro.core.archive", "SpotLakeArchive", "history",
     "core.archive.history"),
    ("repro.lake.merge", "RoundMerger", "take_round",
     "lake.merge.take_round"),
    ("repro.lake.merge", "MergedRound", "items", "lake.merge.items"),
    ("repro.lake.store", "SpotDataLake", "append_round",
     "lake.store.append_round"),
    ("repro.lake.store", "SpotDataLake", "compact", "lake.store.compact"),
    ("repro.lake.store", "SpotDataLake", "change_points",
     "lake.store.change_points"),
    ("repro.lake.store", "SpotDataLake", "scan_column_arrays",
     "lake.store.scan_columns"),
    ("repro.lake.store", "SpotDataLake", "round_snapshot",
     "lake.store.round_snapshot"),
    ("repro.lake.store", "SpotDataLake", "latest_values",
     "lake.store.latest_values"),
    ("repro.lake.store", None, "encode_segment", "storage.columnar.encode"),
    ("repro.storage.segments", None, "encode_segment",
     "storage.columnar.encode"),
    ("repro.lake.diff", "RoundDiffer", "diff", "lake.diff.diff"),
    ("repro.storage.engine", "StorageEngine", "log_points",
     "storage.engine.log_points"),
    ("repro.storage.engine", "StorageEngine", "commit_round",
     "storage.engine.wal_commit"),
    ("repro.storage.engine", "StorageEngine", "checkpoint",
     "storage.engine.checkpoint"),
    ("repro.storage.engine", None, "recover", "storage.recovery.recover"),
    ("repro.timeseries.table", "Table", "append_many",
     "timeseries.table.append_many"),
    # the sweep's table half counts with the sweep
    ("repro.timeseries.table", "Table", "evict_before",
     "core.archive.retention"),
    ("repro.timeseries.table", "Table", "scan", "timeseries.table.scan"),
    ("repro.timeseries.cache", "QueryCache", "scan",
     "timeseries.cache.lookup"),
    ("repro.timeseries.cache", "QueryCache", "latest",
     "timeseries.cache.lookup"),
    ("repro.timeseries.cache", "QueryCache", "value_at",
     "timeseries.cache.lookup"),
    ("repro.timeseries.cache", "QueryCache", "derived",
     "timeseries.cache.lookup"),
    ("repro.lake.federated", "FederatedHistory", "query",
     "lake.federated.query"),
    ("repro.storage.columnar", "SegmentCursor", "scan",
     "storage.columnar.scan"),
    ("repro.storage.columnar", "SegmentCursor", "scan_columns",
     "storage.columnar.scan"),
    ("repro.core.analytics", "AnalyticsRuntime", "run",
     "core.analytics.run"),
    ("repro.core.serving", "Response", "json", "core.serving.render"),
    # ``submit`` alone returns before the request is served; the open
    # loop opens this span itself and closes it at the resolve stamp
    ("repro.core.frontend", "ServingFrontend", "request",
     "core.frontend.request"),
)


def install(tracer: Tracer) -> None:
    """Wrap every :data:`WRAPS` target, for the life of the process."""
    for module_name, class_name, attr, span_name in WRAPS:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module, class_name)
        setattr(owner, attr, tracer.wrap(owner.__dict__[attr], span_name))

    # the two cross-thread hand-offs (see tracer.py)
    parallel = importlib.import_module("repro.core.parallel")
    engine = parallel.ParallelCollectionEngine
    engine._materialize = tracer.wrap_ambient(
        engine.__dict__["_materialize"], "core.parallel.materialize")

    frontend = importlib.import_module("repro.core.frontend")
    ticket_init = frontend.FrontendTicket.__dict__["__init__"]

    def linked_init(self, path, params):
        tracer.link(params)
        ticket_init(self, path, params)
    frontend.FrontendTicket.__init__ = linked_init

    serving = importlib.import_module("repro.core.serving")
    gateway_get = serving.ApiGateway.__dict__["get"]

    def traced_get(self, path, params=None, tenant=None):
        tracer.begin("core.serving.get", parent=tracer.claim(params))
        try:
            return gateway_get(self, path, params, tenant)
        finally:
            tracer.end()
    serving.ApiGateway.get = traced_get


# -- the per-layer catalogue ---------------------------------------------------

#: rule kinds: how :func:`derive` turns spans / counts into the value
ROUND_S = "round_s"          # median over measured rounds of self-time sum
REQ_P50 = "req_ms_p50"       # p50 of per-call self time under requests
REQ_P95 = "req_ms_p95"
PHASE_S = "phase_s"          # summed self time under one phase root
COUNT = "count"              # read from the counts dict under the name

#: (metric, unit, better, rule, span name or phase)
PER_LAYER: Tuple[Tuple[str, str, str, str, object], ...] = (
    # plan
    ("core.plan_cache.plan_s", "s", "lower", PHASE_S,
     ("setup", "core.plan_cache.plan")),
    ("solver.calls", "count", "lower", COUNT, None),
    # collect, per round
    ("core.service.round_s_p50", "s", "lower", COUNT, None),
    ("core.collectors.sps_s", "s", "lower", ROUND_S, "core.collectors.sps"),
    ("core.collectors.advisor_s", "s", "lower", ROUND_S,
     "core.collectors.advisor"),
    ("core.collectors.price_s", "s", "lower", ROUND_S,
     "core.collectors.price"),
    ("core.parallel.materialize_s", "s", "lower", ROUND_S,
     "core.parallel.materialize"),
    ("core.resilience.call_s", "s", "lower", ROUND_S,
     "core.resilience.call"),
    ("cloudsim.api_s", "s", "lower", ROUND_S, "cloudsim.api"),
    ("core.resilience.retries", "count", "lower", COUNT, None),
    ("core.resilience.gaps", "count", "lower", COUNT, None),
    # commit, per round
    ("core.archive.commit_round_s", "s", "lower", ROUND_S,
     "core.archive.commit_round"),
    ("lake.merge.take_round_s", "s", "lower", ROUND_S,
     "lake.merge.take_round"),
    ("lake.merge.items_s", "s", "lower", ROUND_S, "lake.merge.items"),
    ("lake.store.append_round_s", "s", "lower", ROUND_S,
     "lake.store.append_round"),
    ("storage.columnar.encode_s", "s", "lower", ROUND_S,
     "storage.columnar.encode"),
    ("lake.diff.diff_s", "s", "lower", ROUND_S, "lake.diff.diff"),
    ("lake.diff.changed_ratio", "ratio", "lower", COUNT, None),
    ("storage.engine.log_points_s", "s", "lower", ROUND_S,
     "storage.engine.log_points"),
    ("timeseries.table.append_many_s", "s", "lower", ROUND_S,
     "timeseries.table.append_many"),
    ("core.archive.retention_s", "s", "lower", ROUND_S,
     "core.archive.retention"),
    ("storage.engine.wal_commit_s", "s", "lower", ROUND_S,
     "storage.engine.wal_commit"),
    ("storage.engine.checkpoint_s", "s", "lower", PHASE_S,
     ("round", "storage.engine.checkpoint")),
    ("storage.engine.checkpoints", "count", "lower", COUNT, None),
    # space
    ("storage.wal.bytes_per_row", "B/row", "lower", COUNT, None),
    ("storage.engine.write_amp", "ratio", "lower", COUNT, None),
    ("storage.segments.live_bytes", "B", "lower", COUNT, None),
    ("lake.store.bytes_per_round_raw", "B", "lower", COUNT, None),
    ("lake.store.compact_ratio", "ratio", "higher", COUNT, None),
    ("lake.store.partitions", "count", "lower", COUNT, None),
    # maintenance
    ("lake.store.compact_s", "s", "lower", PHASE_S,
     ("compact", "lake.store.compact")),
    ("lake.store.compact_rows_per_s", "1/s", "higher", COUNT, None),
    ("lake.store.compact_rss_delta_mb", "MB", "lower", COUNT, None),
    # recover
    ("core.service.recover_s", "s", "lower", COUNT, None),
    ("storage.recovery.recover_s", "s", "lower", PHASE_S,
     ("setup", "storage.recovery.recover")),
    ("storage.recovery.wal_records", "count", "lower", COUNT, None),
    ("lake.store.latest_values_s", "s", "lower", PHASE_S,
     ("setup", "lake.store.latest_values")),
    # front end
    ("loadgen.late_ms_p99", "ms", "lower", COUNT, None),
    ("loadgen.slo_miss_rate", "ratio", "lower", COUNT, None),
    ("loadgen.read_p50_ms", "ms", "lower", COUNT, None),
    ("loadgen.read_p99_ms", "ms", "lower", COUNT, None),
    ("core.frontend.queue_ms_p50", "ms", "lower", REQ_P50,
     "core.frontend.request"),
    ("core.frontend.queue_ms_p95", "ms", "lower", REQ_P95,
     "core.frontend.request"),
    ("core.frontend.shed", "count", "lower", COUNT, None),
    ("core.frontend.rate_limited", "count", "lower", COUNT, None),
    # gateway
    ("core.serving.get_self_ms_p50", "ms", "lower", REQ_P50,
     "core.serving.get"),
    ("core.serving.render_ms_p50", "ms", "lower", REQ_P50,
     "core.serving.render"),
    ("core.serving.rows_per_response", "count", "higher", COUNT, None),
    # cache / hot tier
    ("timeseries.cache.hit_rate", "ratio", "higher", COUNT, None),
    ("timeseries.cache.evictions", "count", "lower", COUNT, None),
    ("timeseries.cache.invalidations", "count", "lower", COUNT, None),
    ("timeseries.cache.lookup_ms_p50", "ms", "lower", REQ_P50,
     "timeseries.cache.lookup"),
    ("timeseries.table.scan_ms_p50", "ms", "lower", REQ_P50,
     "timeseries.table.scan"),
    # cold tier
    ("core.archive.history_ms_p50", "ms", "lower", REQ_P50,
     "core.archive.history"),
    ("lake.federated.query_ms_p50", "ms", "lower", REQ_P50,
     "lake.federated.query"),
    ("lake.federated.cold_queries", "count", "lower", COUNT, None),
    ("lake.federated.cold_rows", "count", "lower", COUNT, None),
    ("lake.store.change_points_ms_p50", "ms", "lower", REQ_P50,
     "lake.store.change_points"),
    ("lake.store.scan_columns_ms_p50", "ms", "lower", REQ_P50,
     "lake.store.scan_columns"),
    ("lake.store.round_snapshot_ms_p50", "ms", "lower", REQ_P50,
     "lake.store.round_snapshot"),
    ("storage.columnar.scan_ms_p50", "ms", "lower", REQ_P50,
     "storage.columnar.scan"),
    # analytics
    ("core.analytics.run_ms_p50", "ms", "lower", REQ_P50,
     "core.analytics.run"),
    ("core.analytics.rollup_hit_rate", "ratio", "higher", COUNT, None),
    # per op (harness-side latency of each request kind)
    *((f"op.{op}.{pct}_ms", "ms", "lower", COUNT, None)
      for op in OPS for pct in ("p50", "p95")),
    # the machine: measured -> reference speed (see calibrate.py)
    ("loadgen.speed_factor", "ratio", "higher", COUNT, None),
    # trace quality
    ("trace.unattributed_share", "ratio", "lower", COUNT, None),
    ("trace.overhead_share", "ratio", "lower", COUNT, None),
)


def measured(tag: object) -> bool:
    """Root tags of unmeasured work start with ``"warmup"``."""
    return not (isinstance(tag, tuple) and tag and tag[0] == "warmup")


def derive(spans: Sequence[Span], counts: Dict[str, float],
           span_cost_s: float, measured_wall_s: float) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced run.

    ``counts`` carries the ``COUNT`` metrics the harness measured itself
    (program counters, per-op latencies, load-generator figures).
    """
    table = SpanTable(spans)
    rounds = table.roots("round", measured)
    requests = table.roots("request", measured)
    counts = dict(counts)
    counts["trace.unattributed_share"] = table.unattributed_share(
        rounds + requests)
    counts["trace.overhead_share"] = (
        len(spans) * span_cost_s / measured_wall_s
        if measured_wall_s > 0 else 0.0)

    out: Dict[str, float] = {}
    for name, _unit, _better, rule, arg in PER_LAYER:
        value: Optional[float] = None
        if rule == COUNT:
            value = counts.get(name)
        elif rule == ROUND_S:
            value = stats.median(list(
                table.self_by_root(arg, rounds).values()))
        elif rule in (REQ_P50, REQ_P95):
            samples = stats.ms(table.self_samples(arg, requests))
            if samples:
                value = (stats.median(samples) if rule == REQ_P50
                         else stats.tail(samples, 95.0))
        elif rule == PHASE_S:
            phase, span_name = arg
            value = sum(table.self_by_root(
                span_name, table.roots(phase, measured)).values())
        out[name] = float(value) if value is not None else 0.0
    return out
