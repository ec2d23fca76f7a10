"""What ``BENCHMARK.json`` declares, kept next to the code that emits it.

``run.py benchmark-json`` renders this module; a unit test holds the
checked-in file to it.
"""

from __future__ import annotations

from typing import Dict, List

from .layers import PER_LAYER

#: how long one run measures (``--seconds``)
RUN_SECONDS = 10

#: (name, unit, better, bound): defined on every workload -- see README.md
#: for what ``op`` and ``work`` mean on each
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("disk_bytes_per_row", "B/row", "lower", 0.005),
)

UNITS: Dict[str, str] = {name: unit for name, unit, _, _ in END_TO_END}
UNITS.update({entry[0]: entry[1] for entry in PER_LAYER})

WHY = {
    "ingest": "547 types: 1 warm-up + 3 back-to-back rounds (45k rows each, "
              "one checkpoint) across midnight on a fresh directory, then "
              "lake.compact(); no readers: the write path does all the work",
    "serve-hot": "read-only closed loop, 2 clients, 100k requests, zipf "
                 "over 128 pools inside the hot tier, cache warm: frontend, "
                 "gateway, cache and render work; lake and storage bypassed",
    "serve-cold": "read-only closed loop, 2 clients, 208 schedule entries "
                  "(~235 requests), keys uniform over all 18,978 pools, all "
                  "history: the cache never hits; lake scans and decode work",
    "mixed": "1 warm-up + 3 back-to-back rounds on the re-opened fixture "
             "while the hot mix arrives open loop at 20 req/s: a write-path "
             "gain that costs readers (or the reverse) shows only here",
}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WHY.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END],
        "per_layer": [
            {"name": entry[0], "unit": entry[1], "better": entry[2]}
            for entry in PER_LAYER],
    }


def metric_names(traced: bool) -> List[str]:
    return [entry[0] for entry in (PER_LAYER if traced else END_TO_END)]
