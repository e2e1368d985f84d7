#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it once.
# Usage (from the root of a checkout):
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run write stays inside the checkout: the Go
# build cache, temp files and the binary under .bench_build/, trace files
# under benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off

# The benchmark is its own module (benchmark/go.mod) that replaces the
# repository's module with the parent directory, so this fails — and no
# result is printed — when the program's source is not there.
(cd "$here" && go build -o "$build/restore-benchmark" .)

cd "$root"
exec "$build/restore-benchmark" -out "$here/out" -tmp "$build/tmp" "$@"
