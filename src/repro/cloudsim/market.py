"""Latent spot-market model.

Two latent processes per capacity pool drive everything the simulated cloud
exposes:

``headroom``
    Instantaneous surplus-capacity fraction in ``[0, 1]`` for one
    (instance type, region, zone) pool.  It drives the *spot placement
    score* (quantized, capacity-adjusted) and the fulfillment behaviour of
    real spot requests.

``reclaim pressure``
    Monthly-scale tendency of the vendor to reclaim capacity from a
    (instance type, region) pair, in ``[0, 1]``.  It drives the *spot
    instance advisor* interruption-ratio buckets and the interruption
    hazard of running spot instances.

The two processes are only weakly coupled, which is precisely what the paper
observes: near-zero Pearson correlations between the placement score, the
interruption-free score, and the spot price (Section 5.3), while each dataset
still predicts the facet of real behaviour it is supposed to (Section 5.4).

All values are deterministic functions of (pool identity, time, seed), so a
re-created simulation reproduces the identical world; nothing is stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

from .._util import clip01, stable_range, stable_uniform
from .catalog import Catalog, InstanceType
from .clock import SECONDS_PER_DAY, PAPER_WINDOW_START
from .events import CapacityEvent, default_events, total_depth

# ---------------------------------------------------------------------------
# Calibration constants (see DESIGN.md "Calibration targets")
# ---------------------------------------------------------------------------

#: Base headroom per instance category.  Accelerated-computing is the scarce
#: family (Figure 3: ~12% below average SPS); storage next (D/H/I classes).
CATEGORY_BASE = {
    "general": 0.80,
    "compute": 0.78,
    "memory": 0.74,
    "storage": 0.68,
    "accelerated": 0.64,
}

#: Family-level adjustments inside the accelerated category (Figure 3: DL
#: clearly above the rest, G above P, Inf below G).
FAMILY_ADJUST = {
    "DL": 0.30,
    "VT": 0.18,
    "Trn": 0.14,
    "F": 0.10,
    "G": 0.03,
    "Inf": -0.03,
    "P": -0.10,
    # storage: D slightly scarcer than I/H (Figure 7 calls out D drops)
    "D": -0.04,
}

#: Per-step-on-the-size-ladder headroom penalty (Figure 5: larger sizes are
#: less available).
SIZE_PENALTY = 0.016

#: Spread of the per-(family, region) spatial offset.  Deliberately larger
#: than the temporal amplitudes: the paper finds spatial diversity more
#: pronounced than temporal diversity (Section 5.1 key findings).
SPATIAL_FAMILY_SPREAD = 0.17
SPATIAL_TYPE_SPREAD = 0.06
SPATIAL_ZONE_SPREAD = 0.05

#: Temporal sinusoid (amplitude, period-days) components; total swing ~±0.05.
TEMPORAL_COMPONENTS = ((0.022, 2.9), (0.018, 11.0), (0.012, 31.0), (0.02, 197.0))

#: Capacity events (the June-2 dip by default) live in
#: :mod:`repro.cloudsim.events`; the market accepts a custom schedule.

#: Reclaim pressure mixes an independent per-(type, region) component with an
#: anti-headroom component; the small shared weight keeps cross-dataset
#: correlations near zero while preserving the family-level ordering
#: (accelerated interruption-free score ~35% below average, Figure 3).
RECLAIM_INDEPENDENT_WEIGHT = 0.45
RECLAIM_ANTI_HEADROOM_WEIGHT = 0.55

#: Reclaim temporal drift: monthly-scale wander, amplitude of the u-space.
RECLAIM_DRIFT_AMPLITUDE = 0.16
RECLAIM_DRIFT_PERIOD_DAYS = 53.0

#: Weight of the anchor zone's *headroom temporal wave* inside reclaim
#: pressure (sign-flipped: scarce capacity -> more reclaiming).  This shared
#: component gives the SPS / interruption-free correlation of Figure 8 its
#: mild positive lean and wider spread than the price-involving pairs.
RECLAIM_HEADROOM_TEMPORAL_WEIGHT = 3.2

#: Direct category-level reclaim boost: accelerated hardware is reclaimed
#: far more aggressively than its placement score alone suggests (Figure 3:
#: interruption-free score ~35% below average for accelerated vs only ~12%
#: for the placement score).
RECLAIM_CATEGORY_BOOST = {
    "general": -0.05,
    "compute": -0.03,
    "memory": 0.0,
    "storage": 0.06,
    "accelerated": 0.20,
}

#: Piecewise-linear quantile map from reclaim-pressure u to a trailing-month
#: interruption ratio.  Knots chosen so the *bucketed* marginal distribution
#: matches Table 2's interruption-free score column
#: (33.05 / 25.92 / 13.86 / 6.33 / 20.84 % for scores 3.0 .. 1.0).
RECLAIM_QUANTILE_KNOTS = (
    (0.0, 0.0),
    (0.3305, 0.05),
    (0.5897, 0.10),
    (0.7283, 0.15),
    (0.7916, 0.20),
    (1.0, 0.42),
)

#: Empirical quantiles of the *raw* reclaim u (weighted sum of uniform
#: components plus drift); interpolating raw-u through these knots
#: re-uniformizes it so RECLAIM_QUANTILE_KNOTS sees a uniform input and the
#: advisor bucket masses land on Table 2.  Recomputed whenever the weights
#: above change (see tests/cloudsim/test_calibration.py).
RECLAIM_REUNIFORM_KNOTS = (
    -0.3021, 0.0952, 0.1706, 0.2271, 0.2730, 0.3117, 0.3484, 0.3818,
    0.4131, 0.4432, 0.4734, 0.5040, 0.5353, 0.5688, 0.6019, 0.6396,
    0.6805, 0.7279, 0.7868, 0.8785, 1.5014,
)


def _reuniformize(u_raw: float) -> float:
    """Map raw reclaim pressure through its empirical CDF to ~uniform[0,1]."""
    knots = RECLAIM_REUNIFORM_KNOTS
    n = len(knots) - 1
    if u_raw <= knots[0]:
        return 0.0
    if u_raw >= knots[-1]:
        return 1.0
    for i in range(n):
        if u_raw <= knots[i + 1]:
            span = knots[i + 1] - knots[i]
            frac = 0.0 if span == 0 else (u_raw - knots[i]) / span
            return (i + frac) / n
    return 1.0


def _temporal_wave(day: float, *phase_parts: object) -> float:
    """Small deterministic multi-sinusoid wiggle for one pool."""
    total = 0.0
    for idx, (amplitude, period) in enumerate(TEMPORAL_COMPONENTS):
        phase = stable_uniform("phase", idx, *phase_parts) * 2.0 * math.pi
        total += amplitude * math.sin(2.0 * math.pi * day / period + phase)
    return total


def reclaim_ratio_from_u(u: float) -> float:
    """Map reclaim pressure ``u`` in [0, 1] to an interruption ratio.

    Piecewise-linear quantile transform whose bucket masses reproduce the
    paper's Table 2 interruption-free score distribution.
    """
    u = clip01(u)
    knots = RECLAIM_QUANTILE_KNOTS
    for (u0, r0), (u1, r1) in zip(knots, knots[1:]):
        if u <= u1:
            if u1 == u0:
                return r1
            frac = (u - u0) / (u1 - u0)
            return r0 + frac * (r1 - r0)
    return knots[-1][1]


@dataclass
class SpotMarket:
    """Deterministic latent spot-market state for a catalog.

    Parameters
    ----------
    catalog:
        The instance/region/zone catalog this market serves.
    seed:
        World seed; two markets with equal (catalog.seed, seed) agree on
        every value at every instant.
    epoch:
        Epoch seconds treated as "day 0" for temporal components, defaults
        to the paper's collection window start.
    """

    catalog: Catalog
    seed: int = 0
    epoch: float = PAPER_WINDOW_START
    events: list = field(default_factory=default_events)
    _base_cache: Dict[Tuple[str, str, str], float] = field(default_factory=dict, repr=False)

    # -- headroom -----------------------------------------------------------

    def base_headroom(self, itype: InstanceType | str, region: str, zone: str) -> float:
        """Time-invariant component of a pool's headroom."""
        if isinstance(itype, str):
            itype = self.catalog.instance_type(itype)
        key = (itype.name, region, zone)
        cached = self._base_cache.get(key)
        if cached is not None:
            return cached
        base = CATEGORY_BASE[itype.category]
        base += FAMILY_ADJUST.get(itype.class_letter, 0.0)
        base -= SIZE_PENALTY * itype.size_rank
        base += stable_range(-SPATIAL_FAMILY_SPREAD, SPATIAL_FAMILY_SPREAD,
                             "spatial-family", self.seed, itype.family.name, region)
        base += stable_range(-SPATIAL_TYPE_SPREAD, SPATIAL_TYPE_SPREAD,
                             "spatial-type", self.seed, itype.name, region)
        base += stable_range(-SPATIAL_ZONE_SPREAD, SPATIAL_ZONE_SPREAD,
                             "spatial-zone", self.seed, itype.name, region, zone)
        self._base_cache[key] = base
        return base

    def _event_depth(self, itype_name: str, day: float) -> float:
        """Combined headroom loss from the active capacity events."""
        return total_depth(self.events, self.seed, itype_name, day)

    def day_of(self, timestamp: float) -> float:
        """Days elapsed since the market epoch at ``timestamp``."""
        return (timestamp - self.epoch) / SECONDS_PER_DAY

    def headroom(self, itype: InstanceType | str, region: str, zone: str,
                 timestamp: float) -> float:
        """Instantaneous surplus-capacity fraction of one pool in [0, 1]."""
        if isinstance(itype, str):
            itype = self.catalog.instance_type(itype)
        day = self.day_of(timestamp)
        value = self.base_headroom(itype, region, zone)
        value += _temporal_wave(day, "headroom", self.seed, itype.name, region, zone)
        value -= self._event_depth(itype.name, day)
        return clip01(value)

    # -- reclaim pressure ----------------------------------------------------

    def raw_reclaim(self, itype: InstanceType | str, region: str,
                    timestamp: float) -> float:
        """Un-normalized reclaim pressure (weighted latent components).

        Exposed separately so the calibration script
        (``scripts/calibrate_reclaim.py``) can resample its distribution and
        regenerate ``RECLAIM_REUNIFORM_KNOTS`` after any weight change.
        """
        if isinstance(itype, str):
            itype = self.catalog.instance_type(itype)
        day = self.day_of(timestamp)
        independent = stable_uniform("reclaim-indep", self.seed, itype.name, region)
        # normalize base headroom to ~[0, 1] before taking its complement
        zones = self.catalog.supported_zones(itype, region)
        anchor_zone = zones[0] if zones else f"{region}a"
        base = self.base_headroom(itype, region, anchor_zone)
        anti = 1.0 - clip01((base - 0.2) / 0.75)
        u = (RECLAIM_INDEPENDENT_WEIGHT * independent
             + RECLAIM_ANTI_HEADROOM_WEIGHT * anti)
        u += RECLAIM_CATEGORY_BOOST[itype.category]
        phase = stable_uniform("reclaim-phase", self.seed, itype.name, region) * 2 * math.pi
        u += RECLAIM_DRIFT_AMPLITUDE * math.sin(
            2.0 * math.pi * day / RECLAIM_DRIFT_PERIOD_DAYS + phase)
        u -= RECLAIM_HEADROOM_TEMPORAL_WEIGHT * _temporal_wave(
            day, "headroom", self.seed, itype.name, region, anchor_zone)
        return u

    def reclaim_pressure(self, itype: InstanceType | str, region: str,
                         timestamp: float) -> float:
        """Monthly-scale reclaim tendency for (type, region) in [0, 1].

        The independent component dominates temporally, so this is only
        loosely related to headroom over time -- matching the paper's
        near-zero correlation finding -- while the category boost preserves
        the family-level ordering of Figure 3.
        """
        return _reuniformize(self.raw_reclaim(itype, region, timestamp))

    def interruption_ratio(self, itype: InstanceType | str, region: str,
                           timestamp: float) -> float:
        """Trailing-month interruption ratio implied by reclaim pressure."""
        return reclaim_ratio_from_u(self.reclaim_pressure(itype, region, timestamp))
