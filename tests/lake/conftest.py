"""Shared helpers for the tiered-lake suite.

Tests drive archives with a small synthetic workload that is a pure
function of (round, series): a rotating 1-in-``churn`` schedule decides
which series take a new value each round, so two archives driven
identically hold byte-identical data -- the invariant every federation
and recovery test leans on.  Services are built inside tests (never at
module scope) so ``SPOTCONC_SANITIZE=1`` runs track every lock.
"""

from __future__ import annotations

from repro.core.archive import SpotLakeArchive

#: Simulation epoch (2022-01-01 UTC), matching the cloudsim clock.
EPOCH = 1640995200.0
REGION = "test-region-1"


def drive_round(archive: SpotLakeArchive, r: int, types: int = 6,
                zones: int = 2, interval: float = 600.0,
                churn: int = 4) -> float:
    """One synthetic collection round; returns the committed time."""
    t = EPOCH + r * interval
    sps, advisor, price = [], [], []
    for p in range(types):
        itype = f"pool{p}.large"
        a_epoch = (r + p) // churn
        advisor.append((itype, REGION,
                        round(0.05 + 0.01 * ((a_epoch + p) % 5), 4),
                        float((a_epoch + p) % 4),
                        ((a_epoch + p) % 10) * 10, t))
        for z in range(zones):
            zone = f"{REGION}{chr(ord('a') + z)}"
            pool = p * zones + z
            epoch = (r + pool) // churn
            sps.append((itype, REGION, zone, (epoch + pool) % 3 + 1, t))
            price.append((itype, REGION, zone,
                          round(1.0 + 0.0001 * ((epoch + pool) % 50), 4), t))
    archive.append("sps", sps)
    archive.append("advisor", advisor)
    archive.append("price", price)
    archive.commit_round(t)
    return t
