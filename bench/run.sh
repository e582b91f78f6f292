#!/usr/bin/env bash
# Entry point named by /BENCHMARK.json: builds the harness from source
# into .bench_build/ at the checkout root (build cache included, so
# nothing is written outside the checkout) and runs it with the
# arguments given. Run from the checkout root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/sparsebench" .)
exec "$build/sparsebench" "$@"
