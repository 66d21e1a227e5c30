#!/usr/bin/env bash
# Builds the harness from source inside the checkout and runs it with the
# given arguments. Everything the build and the run write (Go build cache,
# the toolchain's own counters, binary, durable-database directories) stays
# under .bench_build/ in the directory the command was started from.
set -euo pipefail
root=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/gopath"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOPROXY=off GOENV=off GOFLAGS=
export XDG_CONFIG_HOME=$out/config
go build -C "$here" -o "$out/mmdbbench" .
exec "$out/mmdbbench" "$@"
