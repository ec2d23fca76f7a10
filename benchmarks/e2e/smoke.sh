#!/usr/bin/env bash
# The benchmark's own check: its unit tests, then every workload once at
# the seconds-long smoke scale (16 instance types, a handful of rounds, a
# few hundred requests).  Smoke results are tagged "scale": "smoke" and
# are never a baseline.  Usage: benchmarks/e2e/smoke.sh [result-file]
set -euo pipefail
cd "$(dirname "$0")/../.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
mkdir -p .bench_build/e2e
python3 -m pytest benchmarks/e2e/tests -q
python3 benchmarks/e2e/run.py --smoke --seconds 4 \
    --out "${1:-.bench_build/e2e/smoke.json}"
