#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it. Everything the build
# writes (binary, Go build cache, temp files) stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$here"
	GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
		XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local \
		go build -o "$build/bench" .
)
exec "$build/bench" -out "$here/out" "$@"
