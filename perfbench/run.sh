#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it from
# the repository root, for example:
#
#   bash perfbench/run.sh --workload secure-resident --seed 1 --seconds 38 --trace 0
#
# Every build artefact, the Go build cache and the traces stay under
# .bench_build/ in the checkout.
set -euo pipefail
build="$(pwd)/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C perfbench build -trimpath -o "$build/perfbench/perfbench" .
exec "$build/perfbench/perfbench" "$@"
