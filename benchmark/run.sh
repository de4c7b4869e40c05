#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# flags. Everything the build writes (binary, Go build cache, the toolchain's
# per-user config directory) is kept under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
	go -C benchmark build -o "$out/ewh-benchmark" .
exec "$out/ewh-benchmark" "$@"
