#!/usr/bin/env bash
# Worker-sweep determinism: SPS collection must replay byte-identically
# at every materialization worker count -- with and without fault
# injection.  Override the sweep or chaos profile via WORKER_SWEEP /
# CHAOS_PROFILE, e.g.
#   WORKER_SWEEP=1,8 CHAOS_PROFILE=heavy scripts/worker_sweep.sh
set -euo pipefail
cd "$(dirname "$0")/.."

SWEEP="${WORKER_SWEEP:-1,4}"
PROFILE="${CHAOS_PROFILE:-moderate}"
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

echo "== worker sweep determinism: workers in {${SWEEP}} =="
python -m repro.devtools.doublerun --rounds 2 --workers-sweep "${SWEEP}"

echo "== worker sweep determinism under chaos: profile=${PROFILE} =="
python -m repro.devtools.doublerun --rounds 2 --workers-sweep "${SWEEP}" \
    --chaos-profile "${PROFILE}"
