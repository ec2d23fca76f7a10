"""Order equivalence of the k-way row merge.

``change_points`` merges each series' per-partition row runs with a k-way
``heapq.merge`` instead of re-sorting the concatenation.  The old
semantics were ``sorted(concat, key=time)`` with a *stable* sort, so the
merge must (a) produce time-sorted rows and (b) preserve partition-append
order on timestamp ties.
"""

from repro.lake.store import _merge_runs


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
