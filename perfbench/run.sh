#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything the build and the run write
# stays under .bench_build/ in the current directory: the Go build cache,
# temporary files, the binary and the trace output.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export TMPDIR="$build/tmp"
export GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

bin="$build/perfbench"
(cd "$here" && go build -o "$bin.new" .) >&2
mv -f "$bin.new" "$bin"

commit=unknown
if git -C "$root" rev-parse --verify -q HEAD >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD)
fi
export PERFBENCH_COMMIT="$commit"
exec "$bin" -workdir "$build/run" -out "$build/traces" "$@"
