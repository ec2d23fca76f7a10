#!/usr/bin/env bash
# Serving-frontend gate: the tests/serving concurrency suite (admission,
# shedding, worker-count byte-identity, closed-loop tenant fairness) must
# pass with the runtime sanitizer armed.  Latency and throughput under
# load are measured by benchmarks/e2e (the `mixed` and `serve-*`
# workloads), not here.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

echo "== sanitized serving suite (admission, shedding, worker sweeps) =="
SPOTCONC_SANITIZE=1 python -m pytest tests/serving -q
