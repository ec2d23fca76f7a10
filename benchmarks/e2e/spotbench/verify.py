"""Oracle verification: the archive against the simulator, read directly.

For each sampled pool the full-range ``/sps/history`` and
``/price/history`` answers of the gateway must equal the change-point
dedup of the simulator engines sampled at the committed round times --
what ``bulk_backfill`` would have written.  The engines are pure
functions of time, so the oracle needs no state from the run.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from repro.core.service import SpotLakeService


def change_points(times: Sequence[float],
                  value_at: Callable[[float], object]
                  ) -> List[Tuple[float, object]]:
    """``(time, value)`` at the first round and wherever the value moved."""
    out: List[Tuple[float, object]] = []
    for at in times:
        value = value_at(at)
        if not out or out[-1][1] != value \
                or type(out[-1][1]) is not type(value):
            out.append((at, value))
    return out


def verify_history(service: SpotLakeService,
                   pools: Sequence[Tuple[str, str, str]]) -> Tuple[int, int]:
    """Check both history routes for ``pools``; returns (checked, wrong)."""
    cloud = service.cloud
    times = service.archive.lake.round_times()
    capacity = {(q.instance_type, region): q.target_capacity
                for q in service.plan.queries for region in q.regions}
    window = {"start": repr(times[0]), "end": repr(times[-1])}
    checked = wrong = 0
    for itype, region, zone in pools:
        expected = {
            "/sps/history": change_points(
                times, lambda at: cloud.placement.zone_score(
                    itype, region, zone, at, capacity[(itype, region)])),
            "/price/history": change_points(
                times, lambda at: cloud.pricing.spot_price(
                    itype, region, at, zone)),
        }
        for path, want in expected.items():
            response = service.gateway.get(path, {
                "instance_type": itype, "region": region, "zone": zone,
                **window})
            got = [(row["time"], row["value"])
                   for row in response.body.get("rows", ())]
            checked += 1
            if response.status != 200 or got != want:
                wrong += 1
    return checked, wrong
