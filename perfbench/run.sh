#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. The Go build cache, the binary
# and the traced run's profiles all stay under .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
