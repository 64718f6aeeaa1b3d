#!/usr/bin/env bash
# Regenerates the machine-readable performance baseline
# (results/BENCH_core.json). The end-to-end pipeline benchmark is
# separate: python3 perfbench/run.py (see perfbench/README.md).
#
#   scripts/bench.sh            # baseline (~1 min)
#
# Pin the worker count with WISCAPE_THREADS=N.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run -p wiscape-bench --release --bin baseline
