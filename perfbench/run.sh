#!/usr/bin/env bash
# Builds lanternd and the benchmark from this checkout's sources, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload query-mem --seed 1 --seconds 16 --trace 0
#
# Build outputs, the Go build cache and Go's own config and telemetry files,
# data directories and span files all stay under .bench_build.
set -euo pipefail
root=$PWD
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/lanternd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/lanternd and perfbench/)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$build/bin/lanternd" ./cmd/lanternd
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -lanternd "$build/bin/lanternd" -work "$build" "$@"
