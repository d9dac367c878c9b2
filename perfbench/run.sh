#!/usr/bin/env bash
# Builds the benchmark and consumelocald from the checkout's sources and
# runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload replay --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, temporary files, the binaries, the
# daemon's data directory and the span dumps.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/consumelocald ] || [ ! -d internal ]; then
	echo "perfbench: run from the root of a consumelocal checkout" >&2
	exit 2
fi

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp" "$out/gopath" "$out/config" "$out/bin" "$out/run"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS=-mod=vendor GOTOOLCHAIN=local GOTELEMETRY=off

go build -o "$out/bin/perfbench" ./perfbench
go build -o "$out/bin/consumelocald" ./cmd/consumelocald
exec "$out/bin/perfbench" -daemon "$out/bin/consumelocald" -workdir "$out/run" "$@"
