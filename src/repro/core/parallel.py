"""Parallel collection engine: sharded SPS execution with ordered merge.

The packed SPS plan (~2,200 queries per round) is embarrassingly parallel
in its *score arithmetic* but strictly ordered in its *control effects*:
account acquisition, quota charges, fault draws and retry backoffs must
happen in canonical plan order or determinism is lost.  The engine
therefore splits every round into three phases:

1. **Admission (serial).**  :meth:`SpsCollector.admit_queries` walks the plan in
   order on the calling thread, running each query's full control
   gauntlet -- account acquire, credential check, fault hook, quota
   charge, resilient retries, gap archival -- through the *deferred* SPS
   entry point
   (:meth:`~repro.cloudsim.ec2_api.Ec2Client.get_spot_placement_scores_deferred`),
   which performs admission but returns a pure, unevaluated
   :class:`~repro.cloudsim.ec2_api.DeferredScoreCall` instead of rows.
   The admission timestamp is recorded per query.

2. **Materialization (parallel).**  Shard the admitted queries into
   contiguous runs and evaluate ``rows_at(t)`` on a
   :class:`~concurrent.futures.ThreadPoolExecutor` (inline when
   ``workers=1``).  Evaluation touches no shared simulation state
   (scores are a pure function of the compiled query and the timestamp),
   so workers race nothing.

3. **Merge + write (serial).**  Concatenate the per-shard row buffers in
   shard order -- which *is* plan order, shards are contiguous -- and
   hand the archive a single ``append``.

Because phase 1 is serial and phases 2-3 are pure and order-preserving,
the archive bytes, gap records, fault schedule, and per-account quota
counts are identical for every worker count -- the property the
``doublerun --workers-sweep`` harness and ``tests/core/test_parallel.py``
(against a row-at-a-time reference collector) pin down.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..lake.schema import SPS_TABLE, SpsRow

if TYPE_CHECKING:
    from .collectors import CollectionReport, SpsCollector

#: One admitted query awaiting materialization: (query, deferred call,
#: admission timestamp).
Admitted = Tuple[object, object, float]


def shard_ranges(count: int, shards: int) -> List[Tuple[int, int]]:
    """Split ``range(count)`` into at most ``shards`` contiguous spans.

    Spans are non-empty, cover every index exactly once, and appear in
    order -- concatenating per-span results reproduces the unsharded
    sequence.  Sizes differ by at most one.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    shards = min(shards, count)
    if shards == 0:
        return []
    base, extra = divmod(count, shards)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


class ParallelCollectionEngine:
    """Executes SPS collection rounds with sharded materialization.

    ``workers=1`` runs the materialization inline (no executor, no
    threads) and is the reference the parallel paths must byte-match.
    The engine is reusable across rounds and services; ``close()`` (or the
    context manager) releases the thread pool.
    """

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._executor: Optional[ThreadPoolExecutor] = None

    # -- lifecycle -----------------------------------------------------------

    def _pool(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="collect")
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ParallelCollectionEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- round execution -----------------------------------------------------

    def run_sps_round(self, collector: "SpsCollector") -> "CollectionReport":
        """One collection round: admit, materialize, append."""
        admitted, report = collector.admit_queries()
        report.records_written += collector.archive.append(
            SPS_TABLE, self._materialize(admitted))
        report.accounts_used = collector.accounts_used_now()
        return report

    @staticmethod
    def _materialize_span(admitted: Sequence[Admitted], start: int,
                          end: int) -> List[SpsRow]:
        """Phase 2 worker body: pure, shared-state-free row evaluation."""
        rows: List[SpsRow] = []
        for query, deferred, stamp in admitted[start:end]:
            for row in deferred.rows_at(stamp):
                zone = row["AvailabilityZoneId"]
                if zone is None:
                    continue
                rows.append((query.instance_type, row["Region"], zone,
                             row["Score"], stamp))
        return rows

    def _materialize(self, admitted: List[Admitted]) -> List[SpsRow]:
        """Phases 2+3: evaluate shards, merge buffers in plan order."""
        if not admitted:
            return []
        if self.workers == 1:
            return self._materialize_span(admitted, 0, len(admitted))
        spans = shard_ranges(len(admitted), self.workers)
        buffers = self._pool().map(
            lambda span: self._materialize_span(admitted, span[0], span[1]),
            spans)
        merged: List[SpsRow] = []
        for buffer in buffers:  # executor.map preserves submission order
            merged.extend(buffer)
        return merged
