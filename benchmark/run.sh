#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays inside the checkout, under
# .bench_build/: the Go build cache, the go command's own config and
# telemetry counters, the binary, the journals the workloads fsync
# (TMPDIR) and the trace files.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "benchmark: $root holds no go.mod and internal/: the benchmark measures the repository's code and cannot run without it" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gotmp"
export TMPDIR="$build/tmp"

GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
