#!/usr/bin/env bash
# Builds cmd/ratingd and the benchmark driver from this checkout's
# source, then runs the driver with the given arguments:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 5 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ at
# the checkout root.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
out="$root/.bench_build"
mkdir -p "$out/work"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=

(cd "$root" && go build -o "$out/ratingd" ./cmd/ratingd)
(cd "$bench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -ratingd "$out/ratingd" -work "$out/work" "$@"
