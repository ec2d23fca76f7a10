"""The four workloads, driven through the service's public API only.

``SpotLakeService`` / ``ServingFrontend`` are used exactly as an
operator and an API client would use them; nothing in ``src/`` knows it
is being measured.  One call of :func:`run_workload` is one run: set-up,
the timed phase, verification -- in this process, so ``peak_rss_mb``
and the shared ``PlanCache`` belong to this workload alone.

Timed phases (everything else -- fixture build, set-up, verification,
close -- is outside them):

* ``ingest``   -- the measured rounds, then ``lake.compact()``;
* ``serve-*``  -- from the clients' start barrier to the last response;
* ``mixed``    -- from the first offered request to the end of the last
  measured round.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cloudsim import SimulatedCloud
from repro.cloudsim.clock import PAPER_WINDOW_START, SECONDS_PER_DAY
from repro.core.frontend import FrontendTicket, ServingFrontend, Tenant
from repro.core.plan_cache import PlanCache
from repro.core.service import ServiceConfig, SpotLakeService

from . import calibrate, gen, layers, stats
from .sizes import (COLD_MIX, HOT_MIX, OPS, ROUND_SECONDS, SLO_MS, Sizes,
                    WORLD_SEED)
from .tracer import NullTracer, Tracer, span_cost
from .verify import verify_history

#: the checkout root (``benchmarks/e2e/spotbench/`` is three levels down)
ROOT = Path(__file__).resolve().parents[3]
#: everything the benchmark writes lives here (git-ignored)
BUILD = ROOT / ".bench_build" / "e2e"
RUN_PY = Path(__file__).resolve().parents[1] / "run.py"

#: the first midnight of the simulated window: runs cross it
MIDNIGHT = PAPER_WINDOW_START + SECONDS_PER_DAY

#: closed-loop virtual arrival rate (``arrival_time = k / rate``)
VIRTUAL_RATE = 1e4

clock = time.perf_counter


# -- small helpers -------------------------------------------------------------

def rss_mb() -> float:
    """Peak resident set of this process so far, in MB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def day_of(time_: float) -> str:
    return datetime.fromtimestamp(time_, tz=timezone.utc).strftime("%Y-%m-%d")


def selected_types(sizes: Sizes) -> Optional[List[str]]:
    """The instance types of a scale (None = the whole catalog)."""
    if sizes.type_count is None:
        return None
    names = sorted(SimulatedCloud(seed=WORLD_SEED)
                   .catalog.instance_type_names)
    return names[::max(1, len(names) // sizes.type_count)][:sizes.type_count]


def service_config(data_dir: Path, sizes: Sizes) -> ServiceConfig:
    """The one configuration every workload runs (ISSUE 11)."""
    return ServiceConfig(
        seed=WORLD_SEED, data_dir=str(data_dir), lake=True,
        retention_max_age=sizes.retention_s,
        checkpoint_every=sizes.checkpoint_every, workers=2,
        frontend_workers=2, instance_types=selected_types(sizes))


def open_service(data_dir: Path, sizes: Sizes, now: float) -> SpotLakeService:
    cloud = SimulatedCloud(seed=WORLD_SEED)
    cloud.clock.set(now)
    return SpotLakeService(service_config(data_dir, sizes), cloud=cloud)


def world_pools(service: SpotLakeService) -> List[gen.Pool]:
    wanted = service.config.instance_types
    pools = service.cloud.catalog.all_pools()
    if wanted is not None:
        keep = set(wanted)
        pools = [p for p in pools if p[0] in keep]
    return pools


def frame_of(service: SpotLakeService, margin: float = 0.0) -> gen.Frame:
    """The time coordinates of what the service holds right now.

    A window that starts strictly after the hot/cold boundary keeps the
    federated planner off the lake.  ``margin`` pushes hot windows
    further in: under ingest a commit advances the boundary by one
    round mid-request, and a hot read must not tip into a cold one.
    """
    times = service.archive.lake.round_times()
    boundary = service.archive.evicted_through("sps")
    if boundary is None:
        boundary = times[0] - 1.0
    return gen.Frame(
        first=times[0], hot_start=boundary + margin + 1.0, last=times[-1],
        rounds=tuple((day_of(t), t) for t in times))


def install_resolve_stamp() -> None:
    """Stamp every ticket with the instant it resolves.

    Open-loop latency runs from a request's due time to this stamp; the
    wrapper is installed once, identically in traced and untraced runs.
    """
    original = FrontendTicket.resolve

    def resolve(self, response):
        self.resolved_at = clock()
        original(self, response)
    FrontendTicket.resolve = resolve


def start_frontend(service: SpotLakeService) -> ServingFrontend:
    tenants = [Tenant(name, rate=rate, burst=burst)
               for name, rate, burst in gen.TENANTS]
    return service.frontend(tenants=tenants).start()


# -- counters the program already keeps ---------------------------------------

def counters(service: SpotLakeService,
             frontend: Optional[ServingFrontend] = None) -> Dict[str, float]:
    """One reading of the existing ``stats()`` / ``census()`` surfaces."""
    archive = service.archive
    resilience = service.resilience_stats().values()
    engine = archive.engine.stats()
    cache = archive.cache_stats()["tables"].values()
    lake = archive.stats()["lake"]
    analytics = archive.analytics.stats()
    totals = service.gateway.metrics.snapshot()["totals"]
    front = frontend.stats.as_dict() if frontend is not None else {}
    return {
        "retries": sum(r["retries"] for r in resilience),
        "gaps": sum(r["gaps"] for r in resilience),
        "wal_bytes": engine["wal_bytes_written"],
        "checkpoints": engine["checkpoints"],
        "rows_merged": archive.rows_merged,
        "rows_ingested": archive.rows_ingested,
        "cache_hits": sum(c["hits"] for c in cache),
        "cache_misses": sum(c["misses"] for c in cache),
        "cache_evictions": sum(c["evictions"] for c in cache),
        "cache_invalidations": sum(c["invalidations"] for c in cache),
        "cold_queries": lake["federated"]["cold_queries"],
        "cold_rows": lake["federated"]["cold_rows"],
        "rollup_hits": analytics["rollup_day_hits"],
        "rollup_recomputes": analytics["rollup_day_recomputes"],
        "responses": totals["requests"],
        "rows_served": totals["rows_served"],
        "shed": front.get("shed", 0),
        "rate_limited": front.get("rate_limited", 0),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def count_metrics(before: Dict[str, float], after: Dict[str, float],
                  service: SpotLakeService) -> Dict[str, float]:
    """The ``COUNT`` per-layer metrics that are counter differences."""
    d = {k: after[k] - before[k] for k in after}
    engine = service.archive.engine.stats()
    raw = [p.bytes for p in service.archive.lake.partitions
           if p.kind == "round"]
    return {
        "solver.calls": PlanCache.shared().stats()["misses"],
        "core.resilience.retries": d["retries"],
        "core.resilience.gaps": d["gaps"],
        "lake.diff.changed_ratio": _ratio(d["rows_ingested"],
                                          d["rows_merged"]),
        "storage.engine.checkpoints": d["checkpoints"],
        "storage.wal.bytes_per_row": _ratio(d["wal_bytes"],
                                            d["rows_merged"]),
        "storage.engine.write_amp": engine["write_amplification"],
        "storage.segments.live_bytes": engine["live_segment_bytes"],
        "lake.store.bytes_per_round_raw": _ratio(sum(raw), len(raw)),
        "lake.store.partitions": len(service.archive.lake.partitions),
        "storage.recovery.wal_records":
            service.archive.engine.recovered.replayed_operations,
        "core.frontend.shed": d["shed"],
        "core.frontend.rate_limited": d["rate_limited"],
        "core.serving.rows_per_response": _ratio(d["rows_served"],
                                                 d["responses"]),
        "timeseries.cache.hit_rate": _ratio(
            d["cache_hits"], d["cache_hits"] + d["cache_misses"]),
        "timeseries.cache.evictions": d["cache_evictions"],
        "timeseries.cache.invalidations": d["cache_invalidations"],
        "lake.federated.cold_queries": d["cold_queries"],
        "lake.federated.cold_rows": d["cold_rows"],
        "core.analytics.rollup_hit_rate": _ratio(
            d["rollup_hits"], d["rollup_hits"] + d["rollup_recomputes"]),
    }


# -- the fixture -----------------------------------------------------------------

def source_key(sizes: Sizes) -> str:
    """Identity of what a fixture was built from: the sizes and every
    source file that can change its bytes."""
    digest = hashlib.sha256(json.dumps(sizes.as_dict(),
                                       sort_keys=True).encode())
    files = sorted((ROOT / "src" / "repro").rglob("*.py"))
    files.append(Path(__file__))
    for path in files:
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def fixture_dir(sizes: Sizes) -> Path:
    return BUILD / f"fixture-{sizes.scale}-{source_key(sizes)}"


def collect_rounds(service: SpotLakeService, times: Sequence[float],
                   tracer, tag_prefix: Tuple[object, ...] = (),
                   after_round=None) -> List[dict]:
    """Run one ``collect_once()`` per entry of ``times``, back to back.

    Returns, per round, when it ran, its wall time, merged rows and
    trouble counts.
    """
    out = []
    sim = service.cloud.clock
    for i, at in enumerate(times):
        sim.set(at)
        rows_before = service.archive.rows_merged
        started = clock()
        with tracer.root("round", tag=(*tag_prefix, i)):
            reports = service.collect_once()
        ended = clock()
        out.append({
            "time": at, "started": started, "ended": ended,
            "wall_s": ended - started,
            "rows": service.archive.rows_merged - rows_before,
            "queries": sum(r.queries_issued for r in reports.values()),
            "failed": sum(r.queries_failed for r in reports.values()),
            "gaps": sum(r.gaps for r in reports.values()),
        })
        if after_round is not None:
            after_round()
    return out


def round_times(first: float, count: int) -> List[float]:
    return [first + i * ROUND_SECONDS for i in range(count)]


def build_fixture(sizes: Sizes) -> Path:
    """Build the read fixture: a compacted closed day, an active day.

    Rounds at the ten-minute cadence up to midnight and past it, then
    ``lake.compact()`` on the closed day, then close -- through the same
    public calls ``ingest`` measures.  Published by one rename.
    """
    final = fixture_dir(sizes)
    if final.exists():
        return final
    BUILD.mkdir(parents=True, exist_ok=True)
    tmp = BUILD / f"tmp-fixture-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    data = tmp / "data"
    first = MIDNIGHT - sizes.fixture_day0_rounds * ROUND_SECONDS
    service = open_service(data, sizes, first)
    rounds = collect_rounds(
        service, round_times(first, sizes.fixture_day0_rounds
                             + sizes.fixture_day1_rounds), NullTracer())
    compacted = service.archive.lake.compact()
    meta = {
        "sizes": sizes.as_dict(),
        "rows_merged": service.archive.rows_merged,
        "round_times": [r["time"] for r in rounds],
        "lake_digest": service.archive.lake.digest(),
        "compaction": compacted,
        "gaps": sum(r["gaps"] for r in rounds),
    }
    service.close()
    (tmp / "meta.json").write_text(json.dumps(meta, indent=1))
    for stale in BUILD.glob(f"fixture-{sizes.scale}-*"):
        shutil.rmtree(stale, ignore_errors=True)
    os.rename(tmp, final)
    return final


def ensure_fixture(sizes: Sizes) -> Path:
    """The fixture of this source tree, built (unmeasured, in a child
    process so its memory never counts here) when missing."""
    final = fixture_dir(sizes)
    if not final.exists():
        subprocess.run([sys.executable, str(RUN_PY), "build-fixture"]
                       + ["--smoke"] * (sizes.scale == "smoke"),
                       check=True, stdout=sys.stderr)
    return final


class Workdir:
    """A scratch data directory, removed on exit."""

    def __init__(self, fixture: Optional[Path] = None):
        self.fixture = fixture
        self.path = BUILD / f"work-{os.getpid()}"
        self.meta: dict = {}

    def __enter__(self) -> "Workdir":
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self

    def copy_fixture(self) -> Path:
        """Copy the fixture's data directory in (part of set-up)."""
        shutil.copytree(self.fixture / "data", self.path / "data")
        self.meta = json.loads((self.fixture / "meta.json").read_text())
        return self.path / "data"

    def __exit__(self, *exc: object) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


# -- closed loop -----------------------------------------------------------------

class ClientLog:
    """What one closed-loop client thread observed."""

    def __init__(self) -> None:
        self.latency: List[Tuple[str, float]] = []   # (op, seconds)
        self.digest = hashlib.sha256()
        self.bodies: Dict[tuple, int] = {}           # request -> body hash
        self.attempted = 0
        self.failed = 0
        self.ended = 0.0


def _request_key(path: str, params: Dict[str, str]) -> tuple:
    return (path, tuple(sorted(params.items())))


def _self_consistent(body: dict) -> bool:
    """A page's ``count`` must be the number of rows it carries."""
    page = body.get("round", body)
    rows = page.get("rows")
    return rows is None or page.get("count") == len(rows)


def closed_loop_client(frontend: ServingFrontend, client: int, clients: int,
                       requests: Sequence[Tuple[gen.Op, Dict[str, str]]],
                       tracer, barrier: threading.Barrier,
                       log: ClientLog) -> None:
    """One client: next request only after the previous response.

    A paged op follows ``next_token`` for up to ``op.pages`` pages; every
    page is a request with its own latency sample.  The store is
    read-only here, so a request seen twice must answer the same bytes.
    """
    barrier.wait()
    for j, (op, params) in enumerate(requests):
        k = client + j * clients
        token = None
        for _page in range(op.pages):
            sent = params if token is None else {**params,
                                                 "next_token": token}
            started = clock()
            with tracer.root("request", tag=(op.name, k)):
                response = frontend.request(
                    gen.tenant_of(k), op.path, sent,
                    arrival_time=gen.due_time(k, VIRTUAL_RATE))
                body = response.json()
            log.latency.append((op.name, clock() - started))
            log.attempted += 1
            log.digest.update(body.encode("utf-8"))
            if response.status != 200:
                log.failed += 1
                break
            seen = log.bodies.setdefault(_request_key(op.path, sent),
                                         hash(body))
            if seen != hash(body) or not _self_consistent(response.body):
                log.failed += 1
            token = response.body.get("next_token")
            if not token:
                break
    log.ended = clock()


def run_closed_loop(frontend: ServingFrontend,
                    schedules: Sequence[Sequence[Tuple[gen.Op, dict]]],
                    tracer) -> dict:
    """Run one client thread per schedule; returns the merged logs."""
    barrier = threading.Barrier(len(schedules) + 1)
    logs = [ClientLog() for _ in schedules]
    threads = [threading.Thread(
        target=closed_loop_client, name=f"client-{c}",
        args=(frontend, c, len(schedules), schedules[c], tracer, barrier,
              logs[c])) for c in range(len(schedules))]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = clock()
    for thread in threads:
        thread.join()
    ended = max(log.ended for log in logs)

    failed = sum(log.failed for log in logs)
    merged: Dict[tuple, int] = {}
    for log in logs:           # the same request must agree across clients
        for key, body_hash in log.bodies.items():
            if merged.setdefault(key, body_hash) != body_hash:
                failed += 1
    digest = hashlib.sha256()
    for log in logs:
        digest.update(log.digest.digest())
    return {
        "started": started, "ended": ended, "wall_s": ended - started,
        "latency": [sample for log in logs for sample in log.latency],
        "attempted": sum(log.attempted for log in logs),
        "failed": failed,
        "digest": digest.hexdigest(),
    }


# -- open loop -------------------------------------------------------------------

#: what the open-loop generator offered, one entry per request:
#: (k, op name, due, sent, ticket, open root span, open wait span)
Offered = List[tuple]


def open_loop_generator(frontend: ServingFrontend, stream: Iterator[gen.Op],
                        rate: float, frame_ref: List[gen.Frame],
                        started: float, stop: threading.Event, tracer,
                        offered: Offered) -> None:
    """Offer ``stream`` at ``rate`` requests/s until ``stop``.

    Request ``k`` is due at ``started + k / rate`` whatever happened to
    the ones before it; a generator that falls behind sends at once and
    the lateness is reported, not hidden.
    """
    k = 0
    while True:
        due = started + gen.due_time(k, rate)
        if stop.wait(max(0.0, due - clock())):
            return
        op = next(stream)
        params = gen.params_for(op, frame_ref[0])
        sent = clock()
        tracer.begin("request", parent=0, tag=(op.name, k))
        tracer.begin("core.frontend.request")
        ticket = frontend.submit(gen.tenant_of(k), op.path, params,
                                 arrival_time=gen.due_time(k, rate))
        wait_span = tracer.detach()
        root_span = tracer.detach()
        offered.append((k, op.name, due, sent, ticket, root_span,
                        wait_span))
        k += 1


def settle_open_loop(offered: Offered, tracer,
                     timeout: float = 30.0) -> dict:
    """Wait for every offered request and account for it.

    Latency runs from the *due* time to the resolve stamp; a request not
    answered 200 within :data:`SLO_MS` (refusals and time-outs included)
    is a miss.
    """
    latency: List[Tuple[str, float]] = []
    late: List[float] = []
    misses = failed = 0
    for k, name, due, sent, ticket, root_span, wait_span in offered:
        late.append(sent - due)
        try:
            status = ticket.result(timeout).status
            done = ticket.resolved_at
        except TimeoutError:
            status, done = 504, clock()
        tracer.finish(wait_span, done)
        tracer.finish(root_span, done)
        latency.append((name, done - due))
        if status != 200:
            failed += 1
        if status != 200 or (done - due) * 1000.0 > SLO_MS:
            misses += 1
    return {"latency": latency, "late": late, "misses": misses,
            "failed": failed, "attempted": len(offered)}


# -- results ---------------------------------------------------------------------

def per_op(latency: Sequence[Tuple[str, float]]) -> Dict[str, List[float]]:
    out: Dict[str, List[float]] = {}
    for name, seconds in latency:
        out.setdefault(name, []).append(seconds * 1000.0)
    return out


def op_counts(latency: Sequence[Tuple[str, float]]) -> Dict[str, float]:
    """The ``op.<name>.p50_ms`` / ``p95_ms`` per-layer metrics."""
    out: Dict[str, float] = {}
    samples = per_op(latency)
    for name in OPS:
        values = samples.get(name, [])
        out[f"op.{name}.p50_ms"] = stats.median(values) or 0.0
        out[f"op.{name}.p95_ms"] = stats.tail(values, 95.0) or 0.0
    return out


TIMINGS = ("setup_s", "op_p50_ms", "op_tail_ms", "work_per_s")


def end_to_end(at_reference: Dict[str, Optional[float]], data_dir: Path,
               rows: float) -> Dict[str, Optional[float]]:
    """The six end-to-end metrics every workload reports: the four
    timings at reference speed (see calibrate.py), memory and space."""
    assert set(at_reference) == set(TIMINGS)
    return {**at_reference, "peak_rss_mb": rss_mb(),
            "disk_bytes_per_row": _ratio(tree_bytes(data_dir), rows)}


def scaled(value: Optional[float], factor: float) -> Optional[float]:
    return None if value is None else value * factor


def rounds_at_reference(rounds: Sequence[dict],
                        sampler: calibrate.Sampler) -> List[float]:
    """Wall seconds of each round at reference speed, each by the kernel
    samples taken while it ran (a slow state that lasts a round or two
    is then taken out of exactly the rounds it hit)."""
    return [r["wall_s"] * sampler.factor(r["started"], r["ended"])
            for r in rounds]


# -- the workloads ---------------------------------------------------------------

def run_ingest(sizes: Sizes, seed: int, seconds: float, tracer,
               work: Workdir, sampler: calibrate.Sampler) -> dict:
    """Back-to-back rounds on a fresh directory, then compact the closed
    day.  No readers: the write path does all the work."""
    data = work.path / "data"
    measured = sizes.measured_rounds(seconds)
    first = MIDNIGHT - sizes.ingest_day0_rounds * ROUND_SECONDS

    setup_at = clock()
    with tracer.root("setup"):
        service = open_service(data, sizes, first)
    setup_end = clock()
    setup_s = setup_end - setup_at

    collect_rounds(service, [first], tracer, tag_prefix=("warmup",))
    before = counters(service)
    rounds = collect_rounds(
        service, round_times(first + ROUND_SECONDS, measured), tracer)
    rounds_wall = sum(r["wall_s"] for r in rounds)
    raw_before = count_metrics(before, counters(service), service)

    rss_before = rss_mb()
    compact_at = clock()
    with tracer.root("compact"):
        compacted = service.archive.lake.compact()
    compact_end = clock()
    compact_s = compact_end - compact_at
    counts = count_metrics(before, counters(service), service)
    # the raw round files are what compaction just folded away
    counts["lake.store.bytes_per_round_raw"] = \
        raw_before["lake.store.bytes_per_round_raw"]
    counts["lake.store.compact_ratio"] = _ratio(compacted["bytes_before"],
                                                compacted["bytes_after"])
    counts["lake.store.compact_rows_per_s"] = _ratio(
        sizes.ingest_day0_rounds * rounds[0]["rows"], compact_s)
    counts["lake.store.compact_rss_delta_mb"] = rss_mb() - rss_before
    counts["core.service.round_s_p50"] = stats.median(
        [r["wall_s"] for r in rounds])

    with tracer.root("verify"):
        checked, wrong = verify_history(
            service, gen.verify_sample(seed, world_pools(service),
                                       sizes.verify_pools))
    lake_digest = service.archive.lake.digest()
    rows_total = service.archive.rows_merged
    service.close()

    rows = rounds[0]["rows"]
    failed = wrong + sum(r["failed"] + r["gaps"] + (r["rows"] != rows)
                         for r in rounds) \
        + (compacted["days_compacted"] != 1)
    merged = sum(r["rows"] for r in rounds)
    reference_s = rounds_at_reference(rounds, sampler)
    raw = {"setup_s": setup_s,
           "op_p50_ms": stats.median([r["wall_s"] for r in rounds]) * 1e3,
           # the slow end of the write path: closing a lake day
           "op_tail_ms": compact_s * 1e3,
           "work_per_s": _ratio(merged, rounds_wall)}
    at_reference = {
        "setup_s": setup_s * sampler.factor(setup_at, setup_end),
        "op_p50_ms": stats.median(reference_s) * 1e3,
        "op_tail_ms": compact_s * 1e3 * sampler.factor(compact_at,
                                                       compact_end),
        "work_per_s": _ratio(merged, sum(reference_s))}
    return {
        "attempted": sum(r["queries"] for r in rounds) + 1 + checked,
        "failed": failed,
        "end_to_end": end_to_end(at_reference, data, rows_total),
        "counts": counts,
        "digests": {"lake": lake_digest},
        "measured_wall_s": rounds_wall + compact_s,
        "details": {
            "raw": raw, "speed_factor": sampler.factor(
                rounds[0]["started"], compact_end),
            "round_s": [r["wall_s"] for r in rounds],
            "round_at": [(r["started"], r["ended"]) for r in rounds],
            "rows_per_round": rows, "measured_rounds": measured,
            "compact_s": compact_s, "compact_at": (compact_at, compact_end),
            "compaction": compacted,
            "verified": checked,
        },
    }


def _reopen(sizes: Sizes, work: Workdir) -> Tuple[SpotLakeService, float]:
    """Copy the fixture in and re-open it; returns the service and the
    seconds ``SpotLakeService(...)`` took until ready to serve."""
    data = work.copy_fixture()
    last = work.meta["round_times"][-1]
    started = clock()
    service = open_service(data, sizes, last + ROUND_SECONDS)
    return service, clock() - started


def _op_sizes(sizes: Sizes, frame: gen.Frame, pools: Sequence[gen.Pool]
              ) -> dict:
    return dict(rounds=frame.rounds, pool_count=len(pools),
                paged_limit=sizes.paged_limit, paged_pages=sizes.paged_pages,
                rounds_page_limit=sizes.rounds_page_limit)


def run_serve(workload: str, sizes: Sizes, seed: int, seconds: float,
              tracer, work: Workdir, sampler: calibrate.Sampler) -> dict:
    """``serve-hot`` / ``serve-cold``: read-only, closed loop.

    The same read layer used two opposite ways: hot keeps to a zipf
    working set inside the cache and the hot tier; cold draws keys
    uniformly from every pool over all history, so the cache never hits
    and the lake does the work.
    """
    hot = workload == "serve-hot"
    setup_at = clock()
    with tracer.root("setup"):
        service, recover_s = _reopen(sizes, work)
        pools = world_pools(service)
        frame = frame_of(service)
        mix = HOT_MIX if hot else COLD_MIX
        # whole mix blocks, so every seed offers the same requests per op
        block = len(gen.mix_block(mix, sizes.paged_pages))
        per_client = max(1, int((sizes.hot_requests_per_s if hot
                                 else sizes.cold_requests_per_s) * seconds
                                ) // sizes.clients // block) * block
        keys = gen.hot_key_space(seed, pools, sizes.hot_pools) if hot \
            else pools
        schedules = [
            [(op, gen.params_for(op, frame)) for op in gen.schedule(
                per_client, seed, client, mix, keys, sizes.zipf_s if hot else None,
                **_op_sizes(sizes, frame, pools))]
            for client in range(sizes.clients)]
        frontend = start_frontend(service)
        if hot:
            # let the cache fill before timing: first touches are about
            # 1 % of the requests and would sit exactly on the p99
            distinct = {_request_key(op.path, params): (op, params)
                        for schedule in schedules
                        for op, params in schedule}
            for op, params in distinct.values():
                frontend.request(gen.tenant_of(0), op.path, params)
    setup_end = clock()
    setup_s = setup_end - setup_at

    before = counters(service, frontend)
    loop = run_closed_loop(frontend, schedules, tracer)
    counts = count_metrics(before, counters(service, frontend), service)
    counts["core.service.recover_s"] = recover_s
    counts.update(op_counts(loop["latency"]))
    frontend.stop()

    checked = wrong = 0
    if not hot:    # acknowledged rounds must be readable after a restart
        with tracer.root("verify"):
            checked, wrong = verify_history(
                service, gen.verify_sample(seed, pools, sizes.verify_pools))
    lake_digest = service.archive.lake.digest()
    service.close()

    ops_ms = [s * 1000.0 for _, s in loop["latency"]]
    counts["loadgen.read_p50_ms"] = stats.median(ops_ms)
    counts["loadgen.read_p99_ms"] = stats.tail(ops_ms, 99.0) \
        if stats.supported(len(ops_ms), 99.0) else 0.0
    # a bulk page read (0.2-0.5 s, a tenth of the cold requests) would
    # alone decide every percentile above p90; it is held by work_per_s
    # and op.rounds_page.*, and the tail is that of the lake-scan queries
    raw = {"setup_s": setup_s, "op_p50_ms": stats.median(ops_ms),
           "op_tail_ms": stats.tail(
               [s * 1000.0 for name, s in loop["latency"]
                if name != "rounds_page"], 95.0 if hot else 90.0),
           "work_per_s": _ratio(loop["attempted"] - loop["failed"],
                                loop["wall_s"])}
    factor = sampler.factor(loop["started"], loop["ended"])
    at_reference = {
        "setup_s": setup_s * sampler.factor(setup_at, setup_end),
        "op_p50_ms": scaled(raw["op_p50_ms"], factor),
        "op_tail_ms": scaled(raw["op_tail_ms"], factor),
        "work_per_s": raw["work_per_s"] / factor}
    return {
        "attempted": loop["attempted"] + checked,
        "failed": loop["failed"] + wrong
        + (lake_digest != work.meta["lake_digest"]),
        "end_to_end": end_to_end(at_reference, work.path / "data",
                                 work.meta["rows_merged"]),
        "counts": counts,
        "digests": {"lake": lake_digest, "responses": loop["digest"]},
        "measured_wall_s": loop["wall_s"],
        "details": {
            "raw": raw, "speed_factor": factor,
            "requests": loop["attempted"], "recover_s": recover_s,
            "phase_at": (loop["started"], loop["ended"]),
            "percentiles_ms": {str(q): stats.percentile(ops_ms, q)
                               for q in (50, 75, 90, 95, 99)},
            "ops": {name: stats.summary(values) for name, values
                    in sorted(per_op(loop["latency"]).items())},
            "verified": checked,
        },
    }


def run_mixed(sizes: Sizes, seed: int, seconds: float, tracer,
              work: Workdir, sampler: calibrate.Sampler) -> dict:
    """Rounds back to back on the re-opened fixture while one generator
    thread offers the hot mix open loop: writes beside reads."""
    measured = sizes.measured_rounds(seconds)
    setup_at = clock()
    with tracer.root("setup"):
        service, recover_s = _reopen(sizes, work)
        pools = world_pools(service)
        next_round = work.meta["round_times"][-1] + ROUND_SECONDS
        # one unmeasured round: the first after a restart rebuilds the
        # write path's key caches
        collect_rounds(service, [next_round], tracer,
                       tag_prefix=("warmup",))
        frame_ref = [frame_of(service, margin=ROUND_SECONDS)]
        stream = gen.op_stream(
            seed, 0, HOT_MIX,
            gen.hot_key_space(seed, pools, sizes.mixed_pools), sizes.zipf_s)
        frontend = start_frontend(service)
    setup_end = clock()
    setup_s = setup_end - setup_at

    before = counters(service, frontend)
    offered: Offered = []
    stop = threading.Event()
    phase_start = clock()
    generator = threading.Thread(
        target=open_loop_generator, name="loadgen",
        args=(frontend, stream, sizes.mixed_rate, frame_ref, phase_start,
              stop, tracer, offered))
    generator.start()

    def advance_frame() -> None:
        frame_ref[0] = frame_of(service, margin=ROUND_SECONDS)
    try:
        rounds = collect_rounds(
            service, round_times(next_round + ROUND_SECONDS, measured),
            tracer, after_round=advance_frame)
    finally:
        stop.set()
        generator.join()
    phase_end = clock()
    rounds_wall = phase_end - phase_start
    reads = settle_open_loop(offered, tracer)
    counts = count_metrics(before, counters(service, frontend), service)
    frontend.stop()

    counts["core.service.recover_s"] = recover_s
    counts["core.service.round_s_p50"] = stats.median(
        [r["wall_s"] for r in rounds])
    ops_ms = [s * 1000.0 for _, s in reads["latency"]]
    counts["loadgen.read_p50_ms"] = stats.median(ops_ms)
    counts["loadgen.late_ms_p99"] = stats.tail(
        stats.ms(reads["late"]), 99.0) or 0.0
    counts["loadgen.slo_miss_rate"] = _ratio(reads["misses"],
                                             reads["attempted"])
    counts.update(op_counts(reads["latency"]))

    with tracer.root("verify"):
        checked, wrong = verify_history(
            service, gen.verify_sample(seed, pools, sizes.verify_pools))
    lake_digest = service.archive.lake.digest()
    rows_total = work.meta["rows_merged"] + service.archive.rows_merged
    service.close()

    rows = rounds[0]["rows"]
    merged = sum(r["rows"] for r in rounds)
    reference_s = rounds_at_reference(rounds, sampler)
    # the operator's side is the round, the readers' side is the stall:
    # their median waits two GIL switch intervals (2 x 5 ms of wall
    # clock, whatever the code or the machine does) and is per layer
    raw = {"setup_s": setup_s,
           "op_p50_ms": stats.median([r["wall_s"] for r in rounds]) * 1e3,
           "op_tail_ms": stats.tail(ops_ms, 95.0),
           "work_per_s": _ratio(merged, sum(r["wall_s"] for r in rounds))}
    factor = sampler.factor(phase_start, phase_end)
    at_reference = {
        "setup_s": setup_s * sampler.factor(setup_at, setup_end),
        "op_p50_ms": stats.median(reference_s) * 1e3,
        "op_tail_ms": scaled(raw["op_tail_ms"], factor),
        "work_per_s": _ratio(merged, sum(reference_s))}
    return {
        "attempted": reads["attempted"] + checked
        + sum(r["queries"] for r in rounds),
        "failed": reads["failed"] + wrong + sum(
            r["failed"] + r["gaps"] + (r["rows"] != rows) for r in rounds),
        "end_to_end": end_to_end(at_reference, work.path / "data",
                                 rows_total),
        "counts": counts,
        "digests": {"lake": lake_digest},
        "measured_wall_s": rounds_wall,
        "details": {
            "raw": raw, "speed_factor": factor,
            "round_s": [r["wall_s"] for r in rounds],
            "round_at": [(r["started"], r["ended"]) for r in rounds],
            "measured_rounds": measured, "offered": reads["attempted"],
            "slo_miss_rate": counts["loadgen.slo_miss_rate"],
            "late_ms_p99": counts["loadgen.late_ms_p99"],
            "ops": {name: stats.summary(values, 95.0) for name, values
                    in sorted(per_op(reads["latency"]).items())},
            "verified": checked,
        },
    }


def run_workload(workload: str, sizes: Sizes, seed: int, seconds: float,
                 traced: bool, trace_out: Optional[Path] = None) -> dict:
    """One run of one workload in this process; see the module docstring."""
    install_resolve_stamp()
    fixture = None if workload == "ingest" else ensure_fixture(sizes)
    tracer = Tracer() if traced else NullTracer()
    if traced:
        layers.install(tracer)
    with Workdir(fixture) as work, calibrate.Sampler() as sampler:
        if workload == "ingest":
            result = run_ingest(sizes, seed, seconds, tracer, work, sampler)
        elif workload == "mixed":
            result = run_mixed(sizes, seed, seconds, tracer, work, sampler)
        else:
            result = run_serve(workload, sizes, seed, seconds, tracer, work,
                               sampler)
    result["details"]["kernel_samples"] = sampler.samples
    result["counts"]["loadgen.speed_factor"] = \
        result["details"]["speed_factor"]
    result.update(workload=workload, scale=sizes.scale, seed=seed,
                  seconds=seconds, traced=traced,
                  correct=result["failed"] == 0
                  and None not in result["end_to_end"].values())
    if traced:
        result["per_layer"] = layers.derive(
            tracer.spans, result["counts"], span_cost(),
            result["measured_wall_s"])
        result["details"]["spans"] = len(tracer.spans)
        if trace_out is not None:
            trace_out.mkdir(parents=True, exist_ok=True)
            tracer.dump(str(trace_out / f"trace-{workload}.json"),
                        workload=workload, scale=sizes.scale, seed=seed)
    return result
