#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# arguments given, from the root of the checkout:
#
#   bash perfbench/run.sh --workload labs_opt --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# checkout (Go build cache, temporary files, the binary, results and
# spans). The build needs the repository's own go.mod one level up, so
# the script fails without printing a result anywhere else.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
