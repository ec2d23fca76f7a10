"""SPS collection rounds: serial admission, then inline materialization.

The packed SPS plan (~2,200 queries per round) is strictly ordered in
its *control effects*: account acquisition, quota charges, fault draws
and retry backoffs must happen in canonical plan order or determinism
is lost.  Its *score arithmetic* is pure.  A round therefore runs in two
phases, both on the calling thread:

1. **Admission.**  :meth:`SpsCollector.admit_queries` walks the plan in
   order, running each query's full control gauntlet -- account
   acquire, credential check, fault hook, quota charge, resilient
   retries, gap archival -- through the *deferred* SPS entry point
   (:meth:`~repro.cloudsim.ec2_api.Ec2Client.get_spot_placement_scores_deferred`),
   which performs admission but returns a pure, unevaluated
   :class:`~repro.cloudsim.ec2_api.DeferredScoreCall` instead of rows.
   The admission timestamp is recorded per query.

2. **Materialization.**  Evaluate ``rows_at(t)`` for every admitted query
   in plan order and hand the archive a single ``append``.

The archive bytes, gap records, fault schedule and per-account quota
counts equal those of the row-at-a-time reference collector, which
``tests/core/test_parallel.py`` pins down.  (The module and class names
predate the removal of the materialization thread pool: ``rows_at`` is
pure Python under the GIL, so threads only took turns.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from ..lake.schema import SPS_TABLE, SpsRow

if TYPE_CHECKING:
    from .collectors import CollectionReport, SpsCollector

#: One admitted query awaiting materialization: (query, deferred call,
#: admission timestamp).
Admitted = Tuple[object, object, float]


class ParallelCollectionEngine:
    """Runs SPS collection rounds: admit, materialize, append."""

    def run_sps_round(self, collector: "SpsCollector") -> "CollectionReport":
        """One collection round: admit, materialize, append."""
        admitted, report = collector.admit_queries()
        report.records_written += collector.archive.append(
            SPS_TABLE, self._materialize(admitted))
        report.accounts_used = collector.accounts_used_now()
        return report

    def _materialize(self, admitted: List[Admitted]) -> List[SpsRow]:
        """Evaluate every admitted query's rows, in plan order."""
        rows: List[SpsRow] = []
        for query, deferred, stamp in admitted:
            for row in deferred.rows_at(stamp):
                zone = row["AvailabilityZoneId"]
                if zone is None:
                    continue
                rows.append((query.instance_type, row["Region"], zone,
                             row["Score"], stamp))
        return rows
