#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload s3_mixed --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .perfbench/ in the
# current directory (Go build cache, binary, scratch stores, traces).
set -euo pipefail

out="$(pwd)/.perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
