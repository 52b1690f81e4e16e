#!/usr/bin/env bash
# Builds the repository benchmark from source and runs one workload.
#
# Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-sweep --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write (Go build cache, temporary
# files, generated traces, span dumps) stays under .bench_build/ in the
# current directory. The build log goes to stderr; stdout carries the
# benchmark's report, whose last line is the JSON result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ are required)" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS="-mod=mod -buildvcs=false"

commit=unknown
if top=$(git -C "$root" rev-parse --show-toplevel 2>/dev/null) && [ "$top" = "$root" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

# The benchmark runs as a child, not via exec, so its RUSAGE_CHILDREN
# peak covers only the worker processes it spawns, not the compiler.
set +e
PERFBENCH_COMMIT="$commit" "$out/perfbench" "$@" &
pid=$!
trap 'kill -TERM "$pid" 2>/dev/null; wait "$pid"; exit 143' TERM INT
wait "$pid"
exit $?
