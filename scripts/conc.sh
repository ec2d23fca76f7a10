#!/usr/bin/env bash
# Concurrency gate: the static spotconc rules must hold repo-wide, the
# deterministic sanitizer probe (serving-frontend workers answering a
# fixed request list while collection rounds commit) must come back
# clean, and the chaos suite must pass with the sanitizer armed via the
# autouse fixture (SPOTCONC_SANITIZE=1).
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

echo "== static concurrency rules: CONC001-003 + FLOW001 =="
python -m repro.cli lint src/repro \
    --select CONC001,CONC002,CONC003,FLOW001

echo "== sanitized probe: frontend workers serving while rounds commit =="
python -m repro.cli lint src/repro --sanitize

echo "== sanitized chaos suite =="
SPOTCONC_SANITIZE=1 python -m pytest tests/chaos -q
