#!/bin/sh
# Builds the benchmark from source into .bench_build/ (Go's caches included, so
# nothing is written outside the checkout) and runs it with the given flags.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out"
export HOME="$out/home" GOCACHE="$out/go-cache" GOPATH="$out/gopath" \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOTELEMETRY=off
(cd cmd/bench && go build -o "$out/eul3d-bench" .)
exec "$out/eul3d-bench" "$@"
