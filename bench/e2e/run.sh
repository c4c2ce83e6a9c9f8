#!/bin/bash
# Runs every workload of BENCHMARK.json once at its calibrated seed, each
# in its own process at 4 threads, and prints every metric as
# `workload metric value unit`. Exits non-zero if any output check failed.
#
#   bench/e2e/run.sh [--traced] [build-dir]
#
# --traced prints the per-layer metrics instead and writes one ledger
# table per workload into the build directory (default: .bench_build at
# the repository root).
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
trace=0
if [[ "${1:-}" == "--traced" ]]; then
  trace=1
  shift
fi
build=${1:-$root/.bench_build}
workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
  "$root/BENCHMARK.json")
status=0
for workload in $workloads; do
  python3 "$here/run.py" --workload "$workload" --trace "$trace" \
    --build-dir "$build" | grep -v '^{' || status=1
  if [[ $trace == 1 ]]; then
    echo "ledger: $build/ledger_$workload.txt"
  fi
done
exit $status
