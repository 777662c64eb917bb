#!/usr/bin/env bash
# Runs each benchmark workload once at the pinned seed, without timing
# (--seconds 0), and fails unless its last line reports "correct": true, so
# the seed-1 output pins in bench/pins.json are checked on every push.  Every
# CI matrix job runs it: bash .github/bench-smoke.sh
set -euo pipefail

for workload in roundtrip-large sweep-small claims-suite; do
  python3 bench/run.py --workload "$workload" --seed 1 --seconds 0 --trace 0 | tail -n 1 |
    python3 -c 'import json, sys; sys.exit(json.load(sys.stdin)["correct"] is not True)'
  echo "$workload: correct"
done
