#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout it is run from and
# runs it with the given arguments. Everything written — the Go build
# cache, the binary, results, spans, scratch stores — stays under
# .bench_build in that checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" TMPDIR="$build/tmp" GOTOOLCHAIN=local

(cd "$(dirname "$0")" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
