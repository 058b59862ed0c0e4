#!/usr/bin/env bash
# Builds the served-round benchmark from source and runs it with the
# given arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload fleet --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the binary and every temporary file stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$root/e2ebench" build -o "$out/e2ebench" .
exec "$out/e2ebench" "$@"
