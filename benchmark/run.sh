#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from
# the checkout's root. Everything it writes — the Go build cache, the
# binary, the run's data directories — lives under .bench_build/, so a
# run touches nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$root" && go build -o "$build/communix-benchmark" ./benchmark) >&2
cd "$root"
exec "$build/communix-benchmark" "$@"
