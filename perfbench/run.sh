#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#
#   bash perfbench/run.sh --workload <ingest|lookup|mixed|all> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, store files) goes under .bench_build/ in the
# current directory; nothing is downloaded.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
if [ -z "${PERFBENCH_REVISION:-}" ] && [ -d "$root/.git" ]; then
	PERFBENCH_REVISION=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	export PERFBENCH_REVISION
fi
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
