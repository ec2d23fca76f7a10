"""The generators are pure functions of (seed, sizes, world)."""

from collections import Counter

from spotbench import gen
from spotbench.sizes import COLD_MIX, HOT_MIX

POOLS = [(f"t{i % 40}.large", f"region-{i % 7}", f"zone-{i}")
         for i in range(400)]
ROUNDS = (("2022-01-01", 100.0), ("2022-01-02", 700.0))
SIZES = dict(rounds=ROUNDS, pool_count=len(POOLS), paged_limit=4,
             paged_pages=3, rounds_page_limit=50)


def hot(seed, client=0, count=500):
    return gen.schedule(count, seed, client, HOT_MIX,
                        gen.hot_key_space(seed, POOLS, 64), 1.1)


def test_same_seed_same_schedule():
    assert hot(7) == hot(7)
    cold = [gen.schedule(300, 7, 1, COLD_MIX, POOLS, None, **SIZES)
            for _ in range(2)]
    assert cold[0] == cold[1]


def test_seed_and_client_change_the_schedule():
    assert hot(7) != hot(8)
    assert hot(7, client=0) != hot(7, client=1)


def test_schedule_is_a_prefix_of_the_stream():
    assert hot(7, count=100) == hot(7, count=500)[:100]


def test_zipf_favours_low_ranks():
    cdf = gen.zipf_cdf(64, 1.1)
    assert all(a < b for a, b in zip(cdf, cdf[1:])) and cdf[-1] == 1.0
    assert gen.draw_rank(cdf, 0.0) == 0
    assert gen.draw_rank(cdf, 0.999999) == 63
    keys = gen.hot_key_space(7, POOLS, 64)
    picked = Counter(op.fixed[0][1] for op in hot(7, count=4000)
                     if op.name == "latest")
    assert picked.most_common(1)[0][0] == keys[0][0]


def test_uniform_keys_cover_the_world():
    ops = gen.schedule(3000, 7, 0, COLD_MIX, POOLS, None, **SIZES)
    zones = {dict(op.fixed).get("zone") for op in ops
             if op.name == "hist_pool_cold"}
    assert len(zones) > 300          # far beyond any 64-pool hot set


def test_mix_is_exact_in_requests_for_every_seed():
    block = len(gen.mix_block(COLD_MIX, 3))
    assert block == 26 and len(gen.mix_block(HOT_MIX, 1)) == 20
    for seed in (7, 8):
        ops = gen.schedule(10 * block, seed, 0, COLD_MIX, POOLS, None,
                           **SIZES)
        requests = Counter()
        for op in ops:
            requests[op.name] += op.pages
        assert sum(requests.values()) == 300
        assert {name: requests[name] // 3 for name in requests} \
            == dict(COLD_MIX)
    hot_names = Counter(op.name for op in hot(7, count=200))
    assert {name: count // 2 for name, count in hot_names.items()} \
        == dict(HOT_MIX)


def test_paged_walks_and_round_pages():
    ops = gen.schedule(2000, 7, 0, COLD_MIX, POOLS, None, **SIZES)
    paged = [op for op in ops if op.name == "hist_type_cold_paged"]
    assert paged and all(op.pages == 3 and ("limit", "4") in op.fixed
                         for op in paged)
    pages = [op for op in ops if op.name == "rounds_page"]
    assert {op.path for op in pages} == {"/rounds/2022-01-01",
                                         "/rounds/2022-01-02"}
    assert all(int(dict(op.fixed)["offset"]) % 50 == 0 for op in pages)


def test_windows_follow_the_frame():
    frame = gen.Frame(first=100.0, hot_start=401.0, last=700.0,
                      rounds=ROUNDS)
    by_window = {op.window: op for op in hot(7)}
    at = gen.params_for(by_window["at"], frame)
    assert at["at"] == "700.0" and "start" not in at
    window = gen.params_for(by_window["hot"], frame)
    assert (window["start"], window["end"]) == ("401.0", "700.0")
    cold = gen.schedule(50, 7, 0, COLD_MIX, POOLS, None, **SIZES)
    spans = {gen.params_for(op, frame).get("start") for op in cold
             if op.window == "all"}
    assert spans == {"100.0"}


def test_tenants_and_virtual_time():
    assert [gen.tenant_of(k) for k in range(4)] == [
        "key-tenant-0", "key-tenant-1", "key-tenant-0", "key-tenant-1"]
    assert gen.due_time(0, 20.0) == 0.0 and gen.due_time(30, 20.0) == 1.5
    assert gen.verify_sample(7, POOLS, 8) == gen.verify_sample(7, POOLS, 8)
    assert gen.verify_sample(7, POOLS, 8) != gen.verify_sample(8, POOLS, 8)
