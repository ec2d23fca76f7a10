"""Order statistics with the benchmark's support rule.

A timing is reported as its median plus the highest percentile that has
at least :data:`MIN_BEYOND` samples beyond it; a percentile the sample
cannot support is never reported (``None``), so a tail figure always
rests on at least ten observations.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10

#: The percentiles a tail may be reported at, ascending.
LADDER = (75.0, 90.0, 95.0, 99.0, 99.9)


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (need not be sorted)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``pct``."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def supported(n: int, pct: float) -> bool:
    return n > 0 and beyond(n, pct) >= MIN_BEYOND


def highest_supported(n: int, cap: float = LADDER[-1]) -> Optional[float]:
    """The highest ladder percentile <= ``cap`` that ``n`` samples support."""
    best = None
    for pct in LADDER:
        if pct <= cap and supported(n, pct):
            best = pct
    return best


def tail(samples: Sequence[float], cap: float) -> Optional[float]:
    """The supported tail of ``samples``: percentile ``cap`` when the
    sample supports it, else the highest supported one below, else None."""
    pct = highest_supported(len(samples), cap)
    return None if pct is None else percentile(samples, pct)


def median(samples: Sequence[float]) -> Optional[float]:
    return statistics.median(samples) if samples else None


def summary(samples: Sequence[float], cap: float = 99.0) -> Dict[str, object]:
    """``{n, p50, tail_pct, tail}`` of one timing sample."""
    pct = highest_supported(len(samples), cap)
    return {
        "n": len(samples),
        "p50": median(samples),
        "tail_pct": pct,
        "tail": None if pct is None else percentile(samples, pct),
    }


def spread(values: Sequence[float]) -> Optional[float]:
    """Inter-quartile distance of ``values`` as a share of their median
    (the driver's steadiness measure); None below four values."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else None


def ms(seconds: Sequence[float]) -> List[float]:
    return [s * 1000.0 for s in seconds]
