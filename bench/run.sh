#!/bin/bash
# The benchmark's entry point for the driver: builds the bench module from
# source with every build output inside the checkout, then runs it from
# bench/ with the driver's arguments.
#
#   bash bench/run.sh --workload read-bulk --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/dbpl-bench" .
exec "$build/dbpl-bench" "$@"
