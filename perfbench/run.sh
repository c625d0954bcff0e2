#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload flash --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build at the root, and the Go command is kept off
# the network.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
