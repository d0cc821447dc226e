#!/usr/bin/env bash
# Builds the serving benchmark from the checkout it sits in and runs it.
# Run from the root of the checkout:
#
#   bash servebench/run.sh --workload lenet5-open --seed 1 --seconds 40 --trace 0
#
# Every build artefact (Go build cache, binary, span dumps) lands under
# .bench_build in the checkout, so nothing outside it is written.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod

(cd "$here" && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
