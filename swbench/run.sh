#!/usr/bin/env bash
# Builds swbench from source in this checkout and runs it, passing every
# argument through:
#
#   bash swbench/run.sh --workload athread-dyn --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary live in .bench_build
# at the root of the checkout, and HOME points there while the toolchain
# runs, so nothing is read from or written to outside the checkout. The
# benchmark imports swcam/internal/..., so it builds with the module's
# go.mod; outside a swcam checkout the build fails and so does the run.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/cache" "$build/tmp" "$build/home"
cd "$root"
env HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home" \
	GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	go build -o "$build/swbench" ./swbench
exec "$build/swbench" "$@"
