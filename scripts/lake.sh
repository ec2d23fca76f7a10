#!/usr/bin/env bash
# Tiered-lake gate: the tests/lake suite (merge/diff, cold store,
# federated history, lake crash windows, and the cold-read oracle that
# pins the one cold reader to the four readers it replaced), the
# columnar cursor's suite (its series index and decoded columns are
# shared by the serving workers), its hostile-bytes fuzz and the
# encoder / day-fold oracle property must pass with the runtime
# sanitizer armed, and every lake publish window must recover
# byte-identical under doublerun --durability --lake.  Ingest
# reduction, cold-scan and federation cost are measured by
# benchmarks/e2e.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

echo "== sanitized lake suite (merge/diff, cold store, federation, cold-read oracle, cursor, fuzz, encoder oracle) =="
SPOTCONC_SANITIZE=1 python -m pytest tests/lake tests/storage/test_columnar.py \
    tests/storage/test_columnar_fuzz.py tests/storage/test_columnar_oracle.py \
    tests/serving/test_rounds_route.py -q

echo "== lake crash windows (doublerun --durability --lake) =="
python -m repro.devtools.doublerun --durability --lake --rounds 4
