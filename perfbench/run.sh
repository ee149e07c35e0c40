#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs one workload:
#
#   bash perfbench/run.sh --workload gap-jf300 --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# checkout: the Go build cache, the binary and the service's store.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" . >&2
commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
cd "$root"
PERFBENCH_COMMIT=$commit exec "$out/perfbench" --scratch "$out" "$@"
