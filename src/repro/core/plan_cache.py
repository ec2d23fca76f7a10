"""Content-addressed cache of packed SPS query plans.

Building the full-catalog plan runs the branch-and-bound solver once per
instance type (~550 solves).  The offering map changes rarely -- region
launches and new instance families are infrequent events -- so the solved
packing for each type is cached under a *content fingerprint* of everything
that determines it: the type name, its (region, zone-count) offering
profile, the bin capacity and the packing algorithm.

Re-planning an unchanged catalog is then pure lookup: **zero solver
invocations** (asserted against :data:`repro.solver.STATS` in the test
suite).  When the catalog drifts, only the types whose fingerprints changed
are re-solved -- targeted invalidation falls out of content addressing, no
explicit invalidation protocol is needed.

The cache also persists to disk (``plan-cache.json`` under the service's
``data_dir``) so a restarted collector skips the cold solve entirely.
Corrupt or version-skewed cache files are ignored, never fatal.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, List, Mapping, Optional, Tuple

from .._util import stable_hash
from ..cloudsim.ec2_api import MAX_SPS_RESULTS
# re-exported: the zero-warm-solve contract is asserted against these
# counters, and layering lets devtools reach the solver only through core
from ..solver import STATS as SOLVER_STATS  # noqa: F401
from ..storage.durable import PLAIN, DurableIO
from .query_planner import PackMemo, QueryPlan, SpsQuery, pack_offering

#: On-disk format version; bump on any incompatible change.
CACHE_VERSION = 1

#: Guards the process-wide singleton slot (PlanCache._shared).
_SHARED_LOCK = threading.Lock()


def type_signature(itype: str, region_zones: Mapping[str, int],
                   capacity: int, algorithm: str) -> str:
    """Content fingerprint of one type's packing subproblem.

    Covers every input the packed groups depend on; ``target_capacity`` is
    deliberately excluded (it parameterizes the query, not the packing).
    """
    parts: List[object] = ["plan-sig", itype, int(capacity), algorithm]
    for region in sorted(region_zones):
        parts.append(region)
        parts.append(int(region_zones[region]))
    return format(stable_hash(*parts), "016x")


class PlanCache:
    """Memoized query planner, optionally saved to and loaded from disk.

    Two cache layers compose:

    * per-type packed groups, keyed by :func:`type_signature` -- a hit
      skips the solver for that type entirely;
    * the shared :data:`~repro.core.query_planner.PackMemo` of solved
      ``(weights, capacity, algorithm)`` subproblems -- a miss on one type
      can still reuse the solve of another type with the same offering
      profile.
    """

    _shared: Optional["PlanCache"] = None

    def __init__(self) -> None:
        self._groups: Dict[str, List[Tuple[str, ...]]] = {}
        self._memo: PackMemo = {}
        self.hits = 0
        self.misses = 0
        self._dirty = False
        # reentrant: plan() and the load/save hooks may nest via the
        # service's save-on-close path
        self._lock = threading.RLock()

    @classmethod
    def shared(cls) -> "PlanCache":
        """The process-wide cache instance (lazily created)."""
        with _SHARED_LOCK:
            if cls._shared is None:
                cls._shared = cls()
            return cls._shared

    @classmethod
    def reset_shared(cls) -> None:
        """Drop the process-wide instance (test isolation hook)."""
        with _SHARED_LOCK:
            cls._shared = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._groups)

    @property
    def dirty(self) -> bool:
        """True when the cache holds entries not yet saved to disk."""
        with self._lock:
            return self._dirty

    def plan(self, offering_map: Mapping[str, Mapping[str, int]],
             capacity: int = MAX_SPS_RESULTS, target_capacity: int = 1,
             algorithm: str = "exact") -> QueryPlan:
        """Build a query plan, reusing cached packings where possible.

        Produces byte-identical plans to
        :func:`~repro.core.query_planner.plan_for_offering_map` -- the
        cache only changes *whether* the solver runs, never its output.
        """
        if algorithm not in ("exact", "ffd", "naive"):
            raise ValueError(f"unknown planning algorithm {algorithm!r}")
        queries: List[SpsQuery] = []
        naive = 0
        with self._lock:
            for itype, region_zones in sorted(offering_map.items()):
                regions = sorted(region_zones)
                naive += len(regions)
                sig = type_signature(itype, region_zones, capacity, algorithm)
                groups = self._groups.get(sig)
                if groups is None:
                    self.misses += 1
                    weights = [min(region_zones[r], capacity)
                               for r in regions]
                    groups = pack_offering(regions, weights, capacity,
                                           algorithm, self._memo)
                    self._groups[sig] = groups
                    self._dirty = True
                else:
                    self.hits += 1
                for packed in groups:
                    queries.append(SpsQuery(itype, packed, target_capacity))
        all_regions = {r for zones in offering_map.values() for r in zones}
        pair_bound = len(offering_map) * len(all_regions)
        return QueryPlan(queries, naive, algorithm, pair_bound)

    # -- on disk -------------------------------------------------------------

    def save(self, path: str, io: DurableIO = PLAIN) -> None:
        """Write the per-type groups to ``path`` (atomic replace)."""
        with self._lock:
            payload = {
                "version": CACHE_VERSION,
                "entries": {sig: [list(group) for group in groups]
                            for sig, groups in sorted(self._groups.items())},
            }
            io.atomic_write(path, json.dumps(
                payload, separators=(",", ":")).encode("utf-8"))
            self._dirty = False

    def load(self, path: str) -> int:
        """Merge entries from ``path``; returns how many were loaded.

        Missing, unreadable, corrupt, or version-skewed files load nothing
        -- the cache must never make startup fail.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return 0
        if not isinstance(payload, dict) or payload.get("version") != CACHE_VERSION:
            return 0
        entries = payload.get("entries")
        if not isinstance(entries, dict):
            return 0
        loaded = 0
        with self._lock:
            for sig, groups in entries.items():
                if sig in self._groups:
                    continue
                try:
                    self._groups[sig] = [tuple(str(r) for r in group)
                                         for group in groups]
                except TypeError:
                    continue
                loaded += 1
        return loaded

    def stats(self) -> Dict[str, int]:
        """Counters for CLI / benchmark reporting."""
        with self._lock:
            return {"entries": len(self._groups), "hits": self.hits,
                    "misses": self.misses}
