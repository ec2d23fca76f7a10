#!/usr/bin/env bash
# Inspect a durable collection data directory.
# Wraps `repro recover`: replays MANIFEST + segments + WAL tail, prints
# the recovered state (rounds, per-table stats, the store's content
# digest, any discarded torn tail), and exits 0 only when the directory
# recovers consistently.
#   scripts/recover.sh ./spotlake-data
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
    echo "usage: $0 <data-dir>" >&2
    exit 2
fi

export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

exec python -m repro.cli recover --data-dir "$1"
