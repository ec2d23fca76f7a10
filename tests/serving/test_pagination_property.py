"""Property: paginated reads stay consistent while the archive is written.

The pagination cursor encodes the last row's sort position (time,
measure, dimensions), not an offset, so a walk that interleaves with
appends must never duplicate or skip a row: every row of the initial
snapshot appears exactly once, rows land in strictly increasing sort
order, and later-arriving rows may join the tail but can never shuffle
the pages already served.

The walk goes through a live 2-worker ServingFrontend while the main
thread writes between pages (and fires overlapping full scans), so the
property also exercises the cache-invalidation path under concurrency.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SPS_MEASURE

from tests.conftest import land

from .conftest import build_serving_service, full_range, generous_tenant


def _row_identity(row):
    return tuple(sorted(row.items()))


def _row_position(row):
    dims = tuple(sorted((k, v) for k, v in row.items()
                        if k not in ("time", "value")))
    return (row["time"], SPS_MEASURE, dims)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), page_limit=st.integers(1, 7),
       writes_per_page=st.integers(0, 3))
def test_paginated_walk_consistent_under_interleaved_writes(
        seed, page_limit, writes_per_page):
    service = build_serving_service(samples=6)
    try:
        rng = random.Random(seed)
        pools = sorted(service.cloud.catalog.all_pools())
        params = full_range(service)
        # stretch the window so interleaved appends land inside it (they
        # may join the tail of the walk; they must never shuffle it)
        params["end"] = str(service.cloud.clock.now() + 1e7)
        # snapshot before the walk: these rows must all be served
        initial = service.gateway.get("/sps/history", dict(params))
        assert initial.status == 200
        initial_ids = {_row_identity(r) for r in initial.body["rows"]}

        frontend = service.frontend(tenants=[generous_tenant("walker")],
                                    workers=2, queue_depth=1024)
        seen = []
        background = []
        write_time = service.cloud.clock.now() + 60.0
        # finite write budget: with per-page writes outpacing a small
        # page_limit the tail would grow faster than the walk consumes
        # it and pagination would never terminate
        writes_left = writes_per_page * 4
        with frontend:
            token = None
            page_index = 0
            while True:
                page_params = dict(params, limit=str(page_limit))
                if token:
                    page_params["next_token"] = token
                response = frontend.request(
                    "key-walker", "/sps/history", page_params,
                    arrival_time=float(page_index), timeout=30.0)
                assert response.status == 200, response.body
                assert len(response.body["rows"]) <= page_limit
                seen.extend(response.body["rows"])
                token = response.body["next_token"]
                # overlap an unpaginated scan with the rest of the walk
                background.append(frontend.submit(
                    "key-walker", "/sps/history", dict(params),
                    arrival_time=float(page_index)))
                # interleave appends (change-point values so rows land)
                for _ in range(min(writes_per_page, writes_left)):
                    writes_left -= 1
                    itype, region, zone = rng.choice(pools)
                    land(service.archive, "sps", [
                        (itype, region, zone, rng.randint(0, 10),
                         write_time)])
                    write_time += 30.0
                if token is None:
                    break
                page_index += 1
            for ticket in background:
                assert ticket.result(30.0).status == 200

        identities = [_row_identity(r) for r in seen]
        assert len(identities) == len(set(identities)), "duplicate rows"
        assert initial_ids <= set(identities), "snapshot rows skipped"
        positions = [_row_position(r) for r in seen]
        assert positions == sorted(set(positions)), \
            "pages out of sort order"
    finally:
        service.close()
