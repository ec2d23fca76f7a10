"""Spot placement score (SPS) engine.

Reproduces the externally observable behaviour of AWS's
``get-spot-placement-scores`` (paper Sections 2.3, 3.1, 5.2):

* a score per region, or per availability zone when
  ``SingleAvailabilityZone`` is requested;
* scores quantized to integers -- single-instance-type queries empirically
  never exceed 3, while the documented range is 1..10;
* composite queries naming several instance types return, in the majority of
  cases, *at least* the sum of the individual types' scores (Figure 6);
* larger target capacity lowers the score, steepest for accelerated-computing
  and dense-storage types (Figure 7).

The quantization thresholds are calibrated so the marginal single-type score
distribution matches Table 2 (87.88% / 3.81% / 8.31% for 3 / 2 / 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .._util import clip01, stable_uniform
from .catalog import Catalog, InstanceType
from .clock import SECONDS_PER_DAY
from .errors import ValidationError
from .market import TEMPORAL_COMPONENTS, SpotMarket

#: Maximum score a single-instance-type query can attain (empirical, Sec 5.2).
SINGLE_TYPE_MAX_SCORE = 3

#: Documented maximum of the composite score range.
COMPOSITE_MAX_SCORE = 10

#: Headroom quantization thresholds: h >= THRESHOLD_3 scores 3,
#: THRESHOLD_2 <= h < THRESHOLD_3 scores 2, otherwise 1.  Calibrated against
#: Table 2's spot-placement-score distribution.
THRESHOLD_3 = 0.44
THRESHOLD_2 = 0.41

#: Capacity sensitivity per category: score penalty per log10(target capacity).
#: Accelerated and dense-storage hardware deplete fastest (Figure 7).
CAPACITY_SENSITIVITY = {
    "general": 0.10,
    "compute": 0.11,
    "memory": 0.13,
    "storage": 0.17,
    "accelerated": 0.28,
}

#: Extra capacity sensitivity for specific classes the paper calls out.
CLASS_CAPACITY_EXTRA = {
    "P": 0.06,
    "G": 0.04,
    "Inf": 0.05,
    "D": 0.08,
}

#: Distribution of the composite-query diversification bonus (Figure 6:
#: composite score == sum of singles in ~38.8% of cases, greater in ~60.6%,
#: below-sum observed only as rare exceptions).
_BONUS_LEVELS = ((0.392, 0), (0.737, 1), (0.935, 2), (0.996, 3), (1.0, -1))

#: Regional aggregation: flexibility bonus per extra supporting zone.
_ZONE_DIVERSITY_BONUS = 0.02


@dataclass(frozen=True)
class PlacementScore:
    """One row of a placement-score response."""

    region: str
    availability_zone: str | None
    score: int

    @property
    def location(self) -> str:
        """The zone when zone-scoped, else the region."""
        return self.availability_zone or self.region


class PlacementScoreEngine:
    """Computes placement scores from the latent market state."""

    def __init__(self, market: SpotMarket):
        self.market = market
        self.catalog: Catalog = market.catalog
        #: compiled-query memo: the plan repeats the same queries every
        #: round, so the time-invariant resolution work happens once
        self._compiled: Dict[tuple, "CompiledScoreQuery"] = {}

    # -- effective headroom -------------------------------------------------

    def _capacity_penalty(self, itype: InstanceType, target_capacity: int) -> float:
        if target_capacity <= 1:
            return 0.0
        sensitivity = CAPACITY_SENSITIVITY[itype.category]
        sensitivity += CLASS_CAPACITY_EXTRA.get(itype.class_letter, 0.0)
        return sensitivity * math.log10(target_capacity)

    def effective_headroom(self, itype: InstanceType | str, region: str, zone: str,
                           timestamp: float, target_capacity: int = 1) -> float:
        """Pool headroom after discounting the requested capacity."""
        if isinstance(itype, str):
            itype = self.catalog.instance_type(itype)
        h = self.market.headroom(itype, region, zone, timestamp)
        return h - self._capacity_penalty(itype, target_capacity)

    @staticmethod
    def quantize(headroom: float) -> int:
        """Map effective headroom to the 1..3 single-type score scale."""
        if headroom >= THRESHOLD_3:
            return 3
        if headroom >= THRESHOLD_2:
            return 2
        return 1

    # -- single-type scores --------------------------------------------------

    def zone_score(self, itype: InstanceType | str, region: str, zone: str,
                   timestamp: float, target_capacity: int = 1) -> int:
        """Single-type score for one availability zone."""
        return self.quantize(
            self.effective_headroom(itype, region, zone, timestamp, target_capacity))

    def region_score(self, itype: InstanceType | str, region: str,
                     timestamp: float, target_capacity: int = 1) -> int:
        """Single-type score aggregated over a region.

        A region offers placement flexibility, so the aggregate follows the
        best zone plus a small diversity bonus per additional zone.
        """
        if isinstance(itype, str):
            itype = self.catalog.instance_type(itype)
        zones = self.catalog.supported_zones(itype, region)
        if not zones:
            raise ValidationError(
                f"{itype.name} is not offered in {region}")
        best = max(self.effective_headroom(itype, region, z, timestamp, target_capacity)
                   for z in zones)
        best += _ZONE_DIVERSITY_BONUS * (len(zones) - 1)
        return self.quantize(best)

    # -- composite queries ----------------------------------------------------

    def _diversification_bonus(self, type_names: Sequence[str], region: str,
                               timestamp: float) -> int:
        """Bonus of a composite query over the sum of single-type scores.

        Sampled deterministically per (type set, region, day): mixing types
        lets the scheduler satisfy the request from whichever pool currently
        has surplus, so the composite score is at least the sum in almost
        every case (Figure 6 finds only rare exceptions below the line).
        """
        day = int(self.market.day_of(timestamp))
        u = stable_uniform("composite-bonus", self.market.seed,
                           tuple(sorted(type_names)), region, day)
        for cutoff, bonus in _BONUS_LEVELS:
            if u <= cutoff:
                return bonus
        return 0

    def composite_region_score(self, itypes: Sequence[InstanceType | str], region: str,
                               timestamp: float, target_capacity: int = 1) -> int:
        """Score of a query naming several instance types for one region."""
        names = [t if isinstance(t, str) else t.name for t in itypes]
        if not names:
            raise ValidationError("a placement-score query needs at least one type")
        if len(names) == 1:
            return self.region_score(names[0], region, timestamp, target_capacity)
        total = sum(self.region_score(n, region, timestamp, target_capacity)
                    for n in names)
        total += self._diversification_bonus(names, region, timestamp)
        return max(1, min(COMPOSITE_MAX_SCORE, total))

    # -- full query ------------------------------------------------------------

    def score_query(self, itypes: Sequence[InstanceType | str], regions: Sequence[str],
                    timestamp: float, target_capacity: int = 1,
                    single_availability_zone: bool = False,
                    max_results: int = 10) -> List[PlacementScore]:
        """Evaluate a placement-score query exactly as the cloud API would.

        Returns at most ``max_results`` rows, keeping the highest scores --
        the truncation behaviour the paper identifies as a core query
        constraint (Section 3.1).
        """
        names = [t if isinstance(t, str) else t.name for t in itypes]
        rows: List[PlacementScore] = []
        for region in regions:
            offered = [n for n in names
                       if self.catalog.is_offered(n, region)]
            if not offered:
                continue
            if single_availability_zone:
                zone_set = sorted({z for n in offered
                                   for z in self.catalog.supported_zones(n, region)})
                for zone in zone_set:
                    in_zone = [n for n in offered
                               if zone in self.catalog.supported_zones(n, region)]
                    if len(in_zone) == 1:
                        score = self.zone_score(in_zone[0], region, zone,
                                                timestamp, target_capacity)
                    else:
                        per_type = sum(self.zone_score(n, region, zone,
                                                       timestamp, target_capacity)
                                       for n in in_zone)
                        per_type += self._diversification_bonus(in_zone, zone, timestamp)
                        score = max(1, min(COMPOSITE_MAX_SCORE, per_type))
                    rows.append(PlacementScore(region, zone, score))
            else:
                rows.append(PlacementScore(
                    region, None,
                    self.composite_region_score(offered, region,
                                                timestamp, target_capacity)))
        rows.sort(key=lambda r: (-r.score, r.region, r.availability_zone or ""))
        return rows[:max_results]

    # -- compiled queries -------------------------------------------------------

    def compile_query(self, itypes: Sequence[InstanceType | str],
                      regions: Sequence[str], target_capacity: int = 1,
                      single_availability_zone: bool = False,
                      max_results: int = 10) -> "CompiledScoreQuery":
        """Pre-resolve a query's time-invariant state; memoized per shape.

        The returned object's :meth:`CompiledScoreQuery.rows` is a *pure*
        function of the timestamp -- every hash draw (headroom phases,
        event membership) is taken here, once, so repeated rounds evaluate
        nothing but arithmetic.  Results are bit-identical to
        :meth:`score_query`.
        """
        names = tuple(t if isinstance(t, str) else t.name for t in itypes)
        key = (names, tuple(regions), target_capacity,
               single_availability_zone, max_results)
        compiled = self._compiled.get(key)
        if compiled is None:
            compiled = CompiledScoreQuery(self, names, tuple(regions),
                                          target_capacity,
                                          single_availability_zone,
                                          max_results)
            self._compiled[key] = compiled
        return compiled


class CompiledScoreQuery:
    """One placement-score query with its market state pre-resolved.

    Single-type single-AZ queries -- the only shape the packed collection
    plan produces -- take a fast path: per (region, zone) cell the base
    headroom, the four temporal-wave phases, the capacity penalty and the
    capacity-event membership are resolved at compile time, and
    :meth:`rows` replays the exact floating-point operation sequence of
    ``SpotMarket.headroom`` / ``PlacementScoreEngine.zone_score`` so the
    quantized scores are byte-identical to the uncompiled path.  Any other
    query shape falls back to :meth:`PlacementScoreEngine.score_query`.
    The fast path touches only immutable compiled state.
    """

    __slots__ = ("engine", "names", "regions", "target_capacity",
                 "single_availability_zone", "max_results", "_cells",
                 "_epoch", "_seconds_per_day")

    def __init__(self, engine: PlacementScoreEngine, names: Tuple[str, ...],
                 regions: Tuple[str, ...], target_capacity: int,
                 single_availability_zone: bool, max_results: int):
        self.engine = engine
        self.names = names
        self.regions = regions
        self.target_capacity = target_capacity
        self.single_availability_zone = single_availability_zone
        self.max_results = max_results
        self._epoch = engine.market.epoch
        self._seconds_per_day = SECONDS_PER_DAY
        self._cells: Optional[tuple] = None
        if single_availability_zone and len(names) == 1:
            self._cells = self._compile_cells()

    def _compile_cells(self) -> tuple:
        market = self.engine.market
        catalog = self.engine.catalog
        name = self.names[0]
        itype = catalog.instance_type(name)
        penalty = self.engine._capacity_penalty(itype, self.target_capacity)
        cells = []
        for region in self.regions:
            if not catalog.is_offered(name, region):
                continue
            zone_set = sorted(
                {z for z in catalog.supported_zones(name, region)})
            for zone in zone_set:
                base = market.base_headroom(itype, region, zone)
                # phases exactly as market._temporal_wave draws them
                waves = tuple(
                    (amplitude, period,
                     stable_uniform("phase", idx, "headroom", market.seed,
                                    itype.name, region, zone) * 2.0 * math.pi)
                    for idx, (amplitude, period)
                    in enumerate(TEMPORAL_COMPONENTS))
                events = tuple(e for e in market.events
                               if e.affects(market.seed, itype.name))
                cells.append((region, zone, base, waves, events, penalty))
        return tuple(cells)

    def rows(self, timestamp: float) -> List[PlacementScore]:
        """Evaluate at ``timestamp``; equals ``score_query`` byte-for-byte."""
        if self._cells is None:
            return self.engine.score_query(
                list(self.names), list(self.regions), timestamp,
                target_capacity=self.target_capacity,
                single_availability_zone=self.single_availability_zone,
                max_results=self.max_results)
        day = (timestamp - self._epoch) / self._seconds_per_day
        sin = math.sin
        pi = math.pi
        rows: List[PlacementScore] = []
        for region, zone, base, waves, events, penalty in self._cells:
            # replay of SpotMarket.headroom's float-op order: base, += the
            # summed temporal wave, -= the summed event depth, clip01
            total = 0.0
            for amplitude, period, phase in waves:
                total += amplitude * sin(2.0 * pi * day / period + phase)
            value = base + total
            depth = 0.0
            for event in events:
                depth += event.ramp_depth(day)
            value -= depth
            headroom = clip01(value) - penalty
            if headroom >= THRESHOLD_3:
                score = 3
            elif headroom >= THRESHOLD_2:
                score = 2
            else:
                score = 1
            rows.append(PlacementScore(region, zone, score))
        rows.sort(key=lambda r: (-r.score, r.region, r.availability_zone or ""))
        return rows[:self.max_results]
