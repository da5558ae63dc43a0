#!/usr/bin/env bash
# Builds the serving-path benchmark from source and runs it.
#
#   bash wsbench/run.sh --workload bulk-split --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run leave
# behind (Go caches, the binary, per-run data directories, span dumps)
# stays under .bench_build/ in the working directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

(cd "$here" && go build -o "$out/wsbench" .)
exec "$out/wsbench" -workdir "$out" "$@"
