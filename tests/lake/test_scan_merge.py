"""Order equivalence of the k-way ``scan`` merge (issue satellite).

``SpotDataLake.scan`` merges per-partition row runs with a k-way
``heapq.merge`` instead of re-sorting the concatenation.  The old
semantics were ``sorted(concat, key=time)`` with a *stable* sort, so the
merge must (a) produce time-sorted rows and (b) preserve
partition-append order on timestamp ties.  Both are asserted here across
multi-partition windows -- round files only, and a mix of compacted day
files plus live round files.
"""

from repro.lake import RoundMerger, SpotDataLake
from repro.lake.store import _merge_runs

from .conftest import EPOCH

DAY = 86400.0
INTERVAL = 600.0


def _fill(lake: SpotDataLake, rounds: int, per_day: int = 6) -> list:
    """Rounds spread over several days; returns the commit times."""
    times = []
    for r in range(rounds):
        t = EPOCH + (r // per_day) * DAY + (r % per_day) * INTERVAL
        merger = RoundMerger()
        for p in range(3):
            itype = f"pool{p}.large"
            merger.add("sps", [(itype, "r1", "r1a", (r + p) % 3 + 1, t)])
            merger.add("price", [(itype, "r1", "r1a",
                                  round(1.0 + 0.01 * ((r + p) % 5), 4), t)])
        merged = merger.take_round(t)
        lake.append_round(merged, merged.rows)   # every row changed
        times.append(t)
    return times


def _reference_scan(lake: SpotDataLake, start: float, end: float):
    """The pre-merge semantics: stable re-sort of the concatenation."""
    per_key = {}
    for part in lake.partitions:
        if part.end < start or part.start > end:
            continue
        for key, rows in lake._partition_scan(part, start, end, None):
            per_key.setdefault(key, []).extend(rows)
    return [(key, sorted(per_key[key], key=lambda row: row[0]))
            for key in sorted(per_key, key=lambda k: (k.measure_name,
                                                      k.dimensions))]


def test_merge_runs_is_stable_on_ties():
    """Equal timestamps keep run order, exactly like the stable sort."""
    a = [(1.0, "a1"), (3.0, "a3"), (3.0, "a3b")]
    b = [(2.0, "b2"), (3.0, "b3")]
    c = [(3.0, "c3"), (4.0, "c4")]
    merged = _merge_runs([a, b, c])
    assert merged == sorted(a + b + c, key=lambda row: row[0])
    # the tie block preserves run order a, a, b, c
    assert [v for t, v in merged if t == 3.0] == ["a3", "a3b", "b3", "c3"]
    # the single-run fast path returns the run itself
    assert _merge_runs([a]) is a


def test_scan_matches_stable_resort_across_partitions(tmp_path):
    lake = SpotDataLake(tmp_path)
    times = _fill(lake, rounds=18)
    assert len(lake.partitions) == 18
    windows = [
        (float("-inf"), float("inf")),
        (times[0], times[-1]),
        (times[2] + 1.0, times[11] - 1.0),   # interior, partition-unaligned
        (EPOCH + DAY, EPOCH + 2 * DAY),      # exactly one day
        (times[-1], times[-1]),              # single instant
    ]
    for start, end in windows:
        got = lake.scan(start, end)
        assert got == _reference_scan(lake, start, end), (start, end)
        for _key, rows in got:
            assert rows == sorted(rows, key=lambda row: row[0])


def test_scan_equivalence_survives_compaction_mix(tmp_path):
    """Day files + live round files in one window still merge correctly."""
    lake = SpotDataLake(tmp_path)
    times = _fill(lake, rounds=18)
    lake.compact()  # full days become day partitions; the last stays rounds
    kinds = {p.kind for p in lake.partitions}
    assert kinds == {"day", "round"}
    full = lake.scan(times[0], times[-1])
    assert full == _reference_scan(lake, times[0], times[-1])
    straddle = lake.scan(EPOCH + DAY + INTERVAL, times[-1])
    assert straddle == _reference_scan(lake, EPOCH + DAY + INTERVAL,
                                       times[-1])
