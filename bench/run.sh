#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given. Everything go writes — build cache, temporaries, the binary — stays
# under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
bin="$build/rhodos-perf"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off
if [ ! -x "$bin" ] || [ -n "$(find "$root/bench" "$root/internal" "$root/go.mod" -newer "$bin" \( -name '*.go' -o -name go.mod \) -print -quit)" ]; then
	(cd "$root/bench" && go build -o "$bin.$$" . && mv "$bin.$$" "$bin")
fi
cd "$root"
exec "$bin" "$@"
