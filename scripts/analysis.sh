#!/usr/bin/env bash
# Vectorized-analytics gate: the engine parity suite (vector == row
# oracle across hot/cold/federated splits, zone-map pruning included),
# the rollup generation-stamp suite, and the /analytics route suite must
# pass with the runtime sanitizer armed; and spotlint must stay clean
# (DET001 keeps host-clock reads out of the serving path).  Analytics
# latency and rollup hit rates are measured by benchmarks/e2e.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

echo "== sanitized analytics suites (parity, rollups, /analytics) =="
SPOTCONC_SANITIZE=1 python -m pytest \
    tests/analysis/test_engine_parity.py \
    tests/core/test_analytics.py \
    tests/serving/test_analytics_route.py \
    tests/lake/test_scan_merge.py -q

echo "== spotlint invariants (layering + determinism) =="
python -m repro.cli lint src/repro
