#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's build directory
# and runs it. Everything go writes (build cache, temporary files, the
# binary, the trained checkpoint, durable data directories) stays under
# .bench_build in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$build/nerbench" .)
exec "$build/nerbench" "$@"
