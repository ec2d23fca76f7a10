"""Command-line interface to the SpotLake reproduction.

Mirrors how the real service is operated: plan the collection, run
collection rounds, query the archive, and run the availability experiment.

    python -m repro.cli plan
    python -m repro.cli collect --types m5.large p3.2xlarge --rounds 3
    python -m repro.cli query --type m5.large --region us-east-1
    python -m repro.cli experiment --per-combo 40
    python -m repro.cli analyze --dataset sps --group-by region
    python -m repro.cli lint src/repro --format json
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from . import ServiceConfig, SimulatedCloud, SpotLakeService
from .cloudsim import CHAOS_PROFILES
from .core import plan_for_catalog
from .core.plan_cache import PlanCache
from .experiments import ExperimentRunner, sample_cases, table3
from .lake import (
    LAKE_DIR_NAME,
    LAKE_MANIFEST_NAME,
    LakeFormatError,
    SpotDataLake,
)
from .solver import STATS as solver_stats
from .storage.columnar import PREFIX_BYTES, header_bytes
from .timeseries import TimeSeriesStore


def _print_content_digest(store: TimeSeriesStore) -> None:
    """One line identifying what the hot store holds: sha256 over each
    table's name and content digest, in name order.  A durable
    ``collect`` and a later ``recover`` of its directory print the same."""
    sha = hashlib.sha256()
    for name, digest in sorted(store.content_digests().items()):
        sha.update(name.encode("utf-8"))
        sha.update(digest.encode("utf-8"))
    print(f"content digest: {sha.hexdigest()}")


def _cmd_plan(args: argparse.Namespace) -> int:
    cloud = SimulatedCloud(seed=args.seed)
    plan = plan_for_catalog(cloud.catalog, algorithm=args.algorithm)
    print(f"catalog: {cloud.catalog.summary()}")
    print(f"pair upper bound: {plan.pair_bound_query_count}")
    print(f"offered pairs:    {plan.naive_query_count}")
    print(f"packed queries:   {plan.optimized_query_count} "
          f"({plan.bound_reduction_factor:.2f}x below the bound)")
    return 0


def _cmd_collect(args: argparse.Namespace) -> int:
    config = ServiceConfig(seed=args.seed,
                           instance_types=args.types or None,
                           chaos_profile=args.chaos_profile,
                           chaos_seed=args.chaos_seed,
                           data_dir=args.data_dir,
                           checkpoint_every=args.checkpoint_every,
                           retention_max_age=(
                               args.retention_hours * 3600.0
                               if args.retention_hours else None))
    try:
        service = SpotLakeService(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cache_stats = PlanCache.shared().stats()
    print(f"plan cache: {cache_stats['entries']} entries, "
          f"{cache_stats['hits']} hits / {cache_stats['misses']} misses "
          f"(solver calls this process: {solver_stats.total_calls})")
    engine = service.archive.engine
    if engine is not None and engine.rounds_committed:
        print(f"recovered {engine.rounds_committed} committed round(s) "
              f"from {args.data_dir}"
              + (" (data loss: torn tail discarded)"
                 if engine.recovered.data_loss else ""))
        # resume the collection timeline one cadence after the last
        # committed round (the archive is append-in-time-order)
        if engine.last_commit_time is not None:
            resume = engine.last_commit_time + args.interval_minutes * 60.0
            if resume > service.cloud.clock.now():
                service.cloud.clock.set(resume)
    for round_no in range(args.rounds):
        reports = service.collect_once()
        sps = reports["sps"]
        line = (f"round {round_no}: sps queries={sps.queries_issued} "
                f"failed={sps.queries_failed} records={sps.records_written}")
        if service.chaos_enabled:
            merged = reports["sps"].merge(reports["advisor"]) \
                                   .merge(reports["price"])
            line += (f" retries={merged.retries} gaps={merged.gaps} "
                     f"breaker_trips={merged.breaker_trips}")
        print(line)
        service.cloud.clock.advance_minutes(args.interval_minutes)
    # per-table ingest stats: the differ has already dropped unchanged
    # rows, so a table only sees change points; the reduction is the
    # "round diff:" line below
    archive = service.archive
    for table, stats in archive.store.stats().items():
        print(f"{table}: {stats['records_written']} written -> "
              f"{stats['change_points_stored']} stored")
    avoided = archive.rows_merged - archive.rows_ingested
    ratio = (archive.rows_merged / archive.rows_ingested
             if archive.rows_ingested else 0.0)
    print(f"round diff: {archive.rows_merged} rows merged, "
          f"{archive.rows_ingested} ingested hot "
          f"({avoided} avoided, {ratio:.1f}x reduction)")
    if service.chaos_enabled:
        for source, stats in sorted(service.resilience_stats().items()):
            print(f"resilience[{source}]: retries={stats['retries']} "
                  f"gaps={stats['gaps']} breaker={stats['breaker_state']} "
                  f"trips={stats['breaker_trips']}")
        faults = service.cloud.faults
        print(f"chaos: {faults.faults_injected()} faults injected over "
              f"{sum(faults.calls(op) for op in ('sps', 'advisor', 'price'))} "
              f"calls (profile={args.chaos_profile}, "
              f"seed={config.chaos_seed if config.chaos_seed is not None else config.seed})")
    if engine is not None:
        service.archive.checkpoint(service.cloud.clock.now())
        stats = engine.stats()
        print(f"storage: {stats['rounds_committed']} rounds committed, "
              f"{stats['checkpoints']} checkpoints, "
              f"manifest v{stats['manifest_version']}, "
              f"wal {stats['wal_bytes_written']}B, "
              f"segments {stats['live_segment_bytes']}B live "
              f"(amplification {stats['write_amplification']:.2f}x)")
        census = archive.lake.census()
        print(f"lake: {census['partitions']} partition(s) over "
              f"{census['days']} day(s), {census['rounds']} round(s), "
              f"{census['bytes']}B cold")
    _print_content_digest(service.archive.store)
    service.close()
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from .storage import recover

    lake_root = Path(args.data_dir) / LAKE_DIR_NAME
    try:
        state = recover(args.data_dir)
        lake = SpotDataLake(lake_root) \
            if (lake_root / LAKE_MANIFEST_NAME).exists() else None
    except Exception as exc:  # noqa: BLE001 -- operator-facing boundary
        print(f"recovery failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    print(f"recovered {args.data_dir}: manifest v{state.manifest.version}, "
          f"{state.rounds_committed} committed round(s), "
          f"last seq {state.last_seq}")
    if state.last_commit_time is not None:
        print(f"last commit at t={state.last_commit_time}")
    print(f"wal tail: {state.replayed_operations} operation(s) replayed, "
          f"{state.torn_lines} torn line(s) discarded, "
          f"{state.uncommitted_records} uncommitted record(s) discarded")
    for name in state.store.table_names():
        stats = state.store.table(name).stats
        policy = state.store.policy(name)
        retention = ("keep-all" if policy.max_age_seconds is None
                     else f"{policy.max_age_seconds:.0f}s")
        print(f"{name}: {stats.series_count} series, "
              f"{stats.change_points_stored} change points, "
              f"{stats.records_written} records written "
              f"(retention {retention})")
    if lake is not None:
        ahead = lake.trim_to(state.last_commit_time)
        census = lake.census()
        span = ("empty" if census["start"] is None else
                f"t={census['start']:.0f}..{census['end']:.0f}")
        print(f"lake: {census['partitions']} partition(s) over "
              f"{census['days']} day(s), {census['rounds']} committed "
              f"round(s), {census['bytes']} bytes, {span}"
              + (f" ({ahead} uncommitted round(s) pending trim)"
                 if ahead else ""))
    _print_content_digest(state.store)
    if state.data_loss:
        print("note: an in-flight (uncommitted) round was discarded; "
              "every committed round is intact")
    return 0


def _cmd_lake(args: argparse.Namespace) -> int:
    root = Path(args.data_dir) / LAKE_DIR_NAME
    if not (root / LAKE_MANIFEST_NAME).exists():
        print(f"no lake manifest under {root}", file=sys.stderr)
        return 1
    try:
        lake = SpotDataLake(root)
    except LakeFormatError as exc:
        print(f"unreadable lake under {root}: {exc}", file=sys.stderr)
        return 1
    if args.action == "stats":
        census = lake.census()
        span = ("empty" if census["start"] is None else
                f"t={census['start']:.0f}..{census['end']:.0f}")
        print(f"lake at {root}: {census['partitions']} partition(s), "
              f"{census['rounds']} round(s) over {census['days']} day(s), "
              f"{census['rows']} rows, {census['bytes']} bytes, {span}")
        for day in lake.days():
            print(f"  {day}: {len(lake.rounds_on(day))} round(s); "
                  + ", ".join(_byte_census(root, kind, group) for kind, group
                              in lake.day_parts(day).items()))
        return 0
    summary = lake.compact(include_active=args.include_active)
    print(f"compacted {summary['days_compacted']} day(s): "
          f"{summary['partitions_merged']} round file(s) folded, "
          f"{summary['bytes_before']} -> {summary['bytes_after']} bytes")
    return 0


def _byte_census(root: Path, kind: str, parts) -> str:
    """``N kind (rows, bytes = header + columns)`` for one kind of a day's
    files, the header length read off each file's first bytes."""
    size = sum(part.bytes for part in parts)
    census = f"{len(parts)} {kind} ({sum(p.rows for p in parts)} rows, " \
        f"{size} bytes"
    if size:
        header = 0
        for part in parts:
            with open(root / part.path, "rb") as fh:
                header += header_bytes(fh.read(PREFIX_BYTES))
        census += f" = {header} header + {size - header} columns"
    return census + ")"


def _cmd_query(args: argparse.Namespace) -> int:
    service = SpotLakeService(ServiceConfig(
        seed=args.seed, instance_types=[args.type]))
    service.collect_once()
    now = service.cloud.clock.now()
    params = {"instance_type": args.type, "region": args.region,
              "at": str(now)}
    if args.zone:
        params["zone"] = args.zone
    response = service.gateway.get("/latest", params)
    if response.status != 200:
        print(f"error {response.status}: {response.body}", file=sys.stderr)
        return 1
    for key, value in sorted(response.body.items()):
        print(f"{key}: {value}")
    return 0


def _backfilled_service(seed: int, days: int,
                        pool_types: int) -> SpotLakeService:
    """A service whose archive holds ``days`` of twice-daily samples for a
    deterministic slice of ``pool_types`` instance types."""
    service = SpotLakeService(ServiceConfig(seed=seed))
    all_pools = service.cloud.catalog.all_pools()
    types = set(sorted({p[0] for p in all_pools})[:pool_types])
    start = service.cloud.clock.start
    times = [start + d * 86400.0 + half * 43200.0 + 3600.0
             for d in range(days) for half in (0, 1)]
    service.bulk_backfill(times, pools=[p for p in all_pools
                                        if p[0] in types])
    service.cloud.clock.set(times[-1])
    return service


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import DATASET_MEASURES, AnalyticsEngine
    from .core.archive import DIM_REGION, DIM_TYPE, DIM_ZONE
    from .timeseries import AGGREGATES

    aggregates = [a.strip() for a in args.agg.split(",") if a.strip()]
    unknown = sorted(set(aggregates) - set(AGGREGATES))
    if unknown:
        print(f"unknown aggregate(s): {', '.join(unknown)} "
              f"(known: {', '.join(AGGREGATES)})", file=sys.stderr)
        return 2
    dim_of = {"instance_type": DIM_TYPE, "region": DIM_REGION,
              "zone": DIM_ZONE}
    group_names = [g.strip() for g in args.group_by.split(",") if g.strip()]
    bad = sorted(set(group_names) - set(dim_of))
    if bad:
        print(f"cannot group by: {', '.join(bad)} "
              f"(known: {', '.join(sorted(dim_of))})", file=sys.stderr)
        return 2

    service = _backfilled_service(args.seed, args.days, args.pool_types)
    engine = AnalyticsEngine(service.archive)
    start = service.cloud.clock.start
    end = service.cloud.clock.now()
    bucket = args.bucket_days * 86400.0 if args.bucket_days else None
    spec = engine.spec(args.dataset, start, end, bucket_seconds=bucket,
                       group_by=[dim_of[g] for g in group_names],
                       aggregates=aggregates)
    result = engine.aggregate(spec)
    labels, edges, tables = result.group_labels, result.edges, result.tables

    table, measure = DATASET_MEASURES[args.dataset]
    print(f"{args.dataset} ({table}.{measure}), {args.days} day(s), "
          f"{len(labels) or 1} group(s) x {len(edges) - 1} bucket(s)")
    header = [*(group_names or ()), "bucket_start", *aggregates]
    print("  " + "  ".join(f"{h:>14s}" for h in header))
    printed = 0
    for g, label in enumerate(labels or [()]):
        for b in range(len(edges) - 1):
            if printed >= args.limit:
                break
            cells = [f"{v:>14s}" for v in label]
            cells.append(f"{float(edges[b]):>14.0f}")
            for agg in aggregates:
                value = float(tables[agg][g, b])
                cells.append(f"{value:>14.4f}")
            print("  " + "  ".join(cells))
            printed += 1
    stats = engine.stats()
    print(f"analytics: {stats['queries']} query(ies), "
          f"{stats['chunks_pruned']} chunks pruned / "
          f"{stats['chunks_decoded']} decoded, "
          f"rollup days {stats['rollup_day_hits']} hit / "
          f"{stats['rollup_day_recomputes']} recomputed")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    cloud = SimulatedCloud(seed=args.seed)
    submit = cloud.clock.start + args.day * 86400.0
    cloud.clock.set(submit)
    cases = sample_cases(cloud, submit, per_combo=args.per_combo)
    print(f"running {len(cases)} stratified 24-hour experiments ...")
    results = ExperimentRunner(cloud).run_all(cases)
    print(f"{'combo':6s} {'not-fulfilled':>14s} {'interrupted':>12s}")
    for row in table3(results):
        print(f"{row.combo:6s} {row.not_fulfilled_percent:13.1f}% "
              f"{row.interrupted_percent:11.1f}%")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .devtools import lint_paths, registered_codes, write_report

    codes = None
    if args.select:
        codes = [c.strip() for c in args.select.split(",") if c.strip()]
        unknown = sorted(set(codes) - set(registered_codes()))
        if unknown:
            print(f"unknown rule code(s): {', '.join(unknown)} "
                  f"(registered: {', '.join(registered_codes())})",
                  file=sys.stderr)
            return 2
    try:
        result = lint_paths(args.paths or ["src/repro"], codes=codes)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.sanitize:
        from .devtools.sanitizer import SANITIZER_CODES, run_sanitized_probe

        probe = run_sanitized_probe()
        result.rules_run.extend(code for code in SANITIZER_CODES
                                if code not in result.rules_run)
        result.findings.extend(probe.findings)
        result.sort()
    write_report(result, sys.stdout, fmt=args.format,
                 show_suppressed=args.show_suppressed)
    return 0 if result.clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SpotLake reproduction CLI")
    parser.add_argument("--seed", type=int, default=0,
                        help="world seed (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="show the bin-packed query plan")
    plan.add_argument("--algorithm", choices=("exact", "ffd", "naive"),
                      default="exact")
    plan.set_defaults(func=_cmd_plan)

    collect = sub.add_parser("collect", help="run collection rounds")
    collect.add_argument("--types", nargs="*", default=None,
                         help="restrict to these instance types")
    collect.add_argument("--rounds", type=int, default=1)
    collect.add_argument("--interval-minutes", type=float, default=10.0)
    collect.add_argument("--chaos-profile", default="none",
                         choices=sorted(CHAOS_PROFILES),
                         help="inject deterministic transient faults "
                              "(default: none)")
    collect.add_argument("--chaos-seed", type=int, default=None,
                         help="fault-schedule seed (default: --seed)")
    collect.add_argument("--data-dir", default=None,
                         help="durable storage directory (WAL + segments "
                              "+ cold lake); restarts recover committed "
                              "rounds from it")
    collect.add_argument("--checkpoint-every", type=int, default=4,
                         help="fold the WAL into segments every N rounds "
                              "(default 4; 0 = only at exit)")
    collect.add_argument("--retention-hours", type=float, default=None,
                         help="evict hot change points older than this; "
                              "with --data-dir they stay queryable cold")
    collect.set_defaults(func=_cmd_collect)

    recover_cmd = sub.add_parser(
        "recover", help="inspect and recover a durable storage directory")
    recover_cmd.add_argument("--data-dir", required=True,
                             help="storage directory written by "
                                  "'collect --data-dir'")
    recover_cmd.set_defaults(func=_cmd_recover)

    lake_cmd = sub.add_parser(
        "lake", help="inspect or compact a cold lake tier")
    lake_cmd.add_argument("action", choices=("stats", "compact"),
                          help="stats: census + per-day partition listing "
                               "(rows, bytes split into header and columns); "
                               "compact: fold finished days' round files "
                               "into deduped day files")
    lake_cmd.add_argument("--data-dir", required=True,
                          help="storage directory written by "
                               "'collect --data-dir'")
    lake_cmd.add_argument("--include-active", action="store_true",
                          help="also compact the newest (still collecting) "
                               "day")
    lake_cmd.set_defaults(func=_cmd_lake)

    query = sub.add_parser("query", help="query the latest archived values")
    query.add_argument("--type", required=True)
    query.add_argument("--region", required=True)
    query.add_argument("--zone", default=None)
    query.set_defaults(func=_cmd_query)

    analyze = sub.add_parser(
        "analyze",
        help="bucketed group-by aggregation over a backfilled archive")
    analyze.add_argument("--dataset", default="sps",
                         choices=("sps", "if_score", "interruption_ratio",
                                  "savings", "price"))
    analyze.add_argument("--days", type=int, default=14,
                         help="backfilled archive window (days)")
    analyze.add_argument("--pool-types", type=int, default=8,
                         help="instance types in the backfill slice")
    analyze.add_argument("--bucket-days", type=float, default=1.0,
                         help="bucket width in days (0 = one bucket "
                              "spanning the window)")
    analyze.add_argument("--group-by", default="region",
                         help="comma-separated dimensions: instance_type, "
                              "region, zone ('' = one global group)")
    analyze.add_argument("--agg", default="mean,count",
                         help="comma-separated aggregates (e.g. "
                              "mean,count,std,twa_mean)")
    analyze.add_argument("--limit", type=int, default=20,
                         help="max result rows printed")
    analyze.set_defaults(func=_cmd_analyze)

    experiment = sub.add_parser("experiment",
                                help="run the Table-3 availability experiment")
    experiment.add_argument("--per-combo", type=int, default=40)
    experiment.add_argument("--day", type=float, default=35.0,
                            help="submission day inside the window")
    experiment.set_defaults(func=_cmd_experiment)

    lint = sub.add_parser(
        "lint", help="run the spotlint invariant checks")
    lint.add_argument("paths", nargs="*",
                      help="files or directories (default: src/repro)")
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument("--select", default=None,
                      help="comma-separated rule codes to run "
                           "(default: all)")
    lint.add_argument("--sanitize", action="store_true",
                      help="also run a probe (frontend workers serving "
                           "while collection rounds commit) under the "
                           "runtime concurrency sanitizer (SAN001/SAN002)")
    lint.add_argument("--show-suppressed", action="store_true",
                      help="also list suppressed findings (text format)")
    lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
