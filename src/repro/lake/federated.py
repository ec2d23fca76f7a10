"""Federated history: split one query at the hot/cold boundary.

The hot engine's retention evicts change points at or before the table's
``evicted_through`` watermark ``B``; everything evicted is still in the
lake.  :class:`FederatedHistory` plans one history query as

    cold = lake.change_points(measure, filters, start, min(end, B))
    hot  = rows of the hot scan with time > B

and concatenates them.  This is exact:

* the cold reconstruction emits precisely the rows an un-evicted hot
  table would hold in ``[start, min(end, B)]`` (baseline walk included,
  see :meth:`SpotDataLake.change_points`);
* the hot table's post-eviction rows after ``B`` are untouched by
  eviction (``evict_before`` keeps each series' last at-or-before-cutoff
  point, so later change points keep their meaning);
* the carried at-or-before-``B`` point the hot table retains is dropped
  here (``time > B``) because the cold side already supplies the
  complete row set up to ``B``.

Both halves arrive in the hot scan's exact total order -- a stable time
sort over (measure, dimensions)-ordered series -- so the concatenation
is globally sorted and serving-layer pagination cursors remain stable
across the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..timeseries.record import Record
from .store import SpotDataLake


@dataclass(frozen=True)
class FederatedPlan:
    """Where one history query's rows come from."""

    measure: str
    start: float
    end: float
    boundary: float     # evicted_through; -inf when nothing is evicted
    use_cold: bool
    use_hot: bool


class FederatedHistory:
    """Boundary-splitting query planner over one cold lake."""

    def __init__(self, lake: SpotDataLake):
        self.lake = lake
        self.queries = 0
        self.cold_queries = 0
        self.cold_rows = 0

    @staticmethod
    def plan(measure: str, start: float, end: float,
             evicted_through: Optional[float]) -> FederatedPlan:
        boundary = float("-inf")
        if evicted_through is not None and math.isfinite(evicted_through):
            boundary = float(evicted_through)
        return FederatedPlan(
            measure=measure, start=start, end=end, boundary=boundary,
            use_cold=boundary != float("-inf") and start <= boundary,
            use_hot=end > boundary)

    def query(self, measure: str, filters: Dict[str, str],
              start: float, end: float,
              evicted_through: Optional[float],
              hot_scan: Callable[[], List[Record]]) -> List[Record]:
        """Execute one federated history query.

        ``hot_scan`` is a thunk running the archive's existing hot read
        for the full ``[start, end]`` window (it is not invoked when the
        window ends at or before the boundary).
        """
        plan = self.plan(measure, start, end, evicted_through)
        self.queries += 1
        rows: List[Record] = []
        if plan.use_cold:
            cold = self.lake.change_points(measure, filters, start,
                                           min(end, plan.boundary))
            self.cold_queries += 1
            self.cold_rows += len(cold)
            rows.extend(cold)
        if plan.use_hot:
            boundary = plan.boundary
            rows.extend(r for r in hot_scan() if r.time > boundary)
        return rows

    def stats(self) -> dict:
        return {
            "queries": self.queries,
            "cold_queries": self.cold_queries,
            "cold_rows": self.cold_rows,
        }
