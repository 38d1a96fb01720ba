#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags,
# keeping every build artifact and Go cache inside the checkout:
#
#   bash benchmark/run.sh --workload sweep --seed 7 --seconds 20 --trace 0
#
# Run it from the repository root. Outside a full checkout (no go.mod
# at the root) the build fails and the script exits non-zero without
# printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-build"
export GOMODCACHE="$build/go-mod"
export GOPATH="$build/go-path"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export GOPROXY=off

(cd "$root/benchmark" && go build -o "$build/rskip-benchmark" .)
exec "$build/rskip-benchmark" "$@"
