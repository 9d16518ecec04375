#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# flags. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload cold-existing --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (Go build cache, module cache, tool config,
# the binary) stays under $CARGO_TARGET_DIR, default .bench_build, so a run
# touches nothing outside the checkout.
set -euo pipefail

build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$PWD/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/go-cache
export GOPATH=$build/go-path
export GOMODCACHE=$build/go-path/pkg/mod
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

go -C e2ebench build -o "$build/e2ebench" .
exec "$build/e2ebench" "$@"
