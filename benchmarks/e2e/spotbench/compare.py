"""``run.py compare A.json B.json``: did B get worse than A?

Per end-to-end metric x workload, B's median is held against A's with the
bound ``BENCHMARK.json`` fixes for the metric:

* ``regressed``    -- worse by more than the bound;
* ``improved``     -- better by more than the bound;
* ``within-bound`` -- neither;
* ``unresolved``   -- the run-to-run spread of either side (distance
  between its quartiles over its median, four or more runs) is wider
  than the bound, so the difference cannot be told from noise -- unless
  every run of one side beats every run of the other.

Counts the program makes and content digests must repeat exactly between
runs with the same seed (``mixed`` offers a speed-dependent number of
requests, so only its lake digest is held).  Exit status is non-zero on
any regression, raised failure count, or exact-check mismatch.
"""

from __future__ import annotations

import json
import re
import statistics
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from . import stats
from .spec import END_TO_END

#: count metrics that are timings or depend on them are not held exactly
_INEXACT = re.compile(r"(_s|_ms|_mb)(_|$)|^op\.|^loadgen\.")

EXACT_WORKLOADS = ("ingest", "serve-hot", "serve-cold")


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if not a:
        return 0.0
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def separated(a: Sequence[float], b: Sequence[float], better: str) -> bool:
    """Every run of one side reads better than every run of the other."""
    if better == "lower":
        return max(a) < min(b) or max(b) < min(a)
    return min(a) > max(b) or min(b) > max(a)


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> Tuple[str, float, Optional[float]]:
    """``(verdict, worse_by, spread)`` of one metric on one workload."""
    change = worse_by(statistics.median(a), statistics.median(b), better)
    spreads = [s for s in (stats.spread(a), stats.spread(b))
               if s is not None]
    spread = max(spreads) if spreads else None
    if spread is not None and spread > bound and \
            not separated(a, b, better):
        return "unresolved", change, spread
    if change > bound:
        return "regressed", change, spread
    if change < -bound:
        return "improved", change, spread
    return "within-bound", change, spread


def _values(runs: List[dict], metric: str) -> List[float]:
    return [run["end_to_end"][metric] for run in runs
            if run["end_to_end"].get(metric) is not None]


def exact_mismatches(workload: str, a_runs: List[dict],
                     b_runs: List[dict]) -> List[str]:
    """Counts and digests that differ between same-seed runs."""
    out: List[str] = []
    b_by_seed = {run["seed"]: run for run in b_runs}
    for a in a_runs:
        b = b_by_seed.get(a["seed"])
        if b is None:
            continue
        for label, digest in a["digests"].items():
            if b["digests"].get(label) != digest:
                out.append(f"{workload} seed {a['seed']}: digest.{label} "
                           f"differs")
        if workload not in EXACT_WORKLOADS:
            continue
        for name, value in a["counts"].items():
            if not _INEXACT.search(name) and b["counts"].get(name) != value:
                out.append(f"{workload} seed {a['seed']}: {name} "
                           f"{value!r} != {b['counts'].get(name)!r}")
    return out


def compare(a: dict, b: dict) -> Tuple[List[str], bool]:
    """Report lines and whether B is acceptable."""
    lines: List[str] = []
    ok = True
    for workload, a_runs in a["workloads"].items():
        b_runs = b["workloads"].get(workload)
        if not b_runs:
            lines.append(f"{workload}: missing from B")
            ok = False
            continue
        for name, unit, better, bound in END_TO_END:
            a_vals, b_vals = _values(a_runs, name), _values(b_runs, name)
            if not a_vals or not b_vals:
                lines.append(f"{workload:11s} {name:20s} unsupported")
                continue
            kind, change, spread = verdict(a_vals, b_vals, better, bound)
            ok = ok and kind != "regressed"
            shown = "n/a" if spread is None else f"{spread:.3f}"
            lines.append(
                f"{workload:11s} {name:20s} {kind:13s} "
                f"A {statistics.median(a_vals):12.6g} "
                f"B {statistics.median(b_vals):12.6g} {unit:6s} "
                f"worse by {change:+.3f} (bound {bound:g}, spread {shown})")
        failed_a = sum(run["failed"] for run in a_runs)
        failed_b = sum(run["failed"] for run in b_runs)
        if failed_b > failed_a:
            lines.append(f"{workload}: failed operations rose "
                         f"{failed_a} -> {failed_b}")
            ok = False
        mismatches = exact_mismatches(workload, a_runs, b_runs)
        lines.extend(mismatches)
        ok = ok and not mismatches
    return lines, ok


def main(path_a: Path, path_b: Path) -> int:
    lines, ok = compare(json.loads(path_a.read_text()),
                        json.loads(path_b.read_text()))
    print("\n".join(lines))
    print("OK: no regression" if ok else "FAILED: see above")
    return 0 if ok else 1
