#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it is
# run from, then runs it with the given arguments:
#
#   bash zzbench/run.sh --workload serve-live --seed 1 --seconds 42 --trace 0
#
# Run it from the repository root. The build cache, the go command's own
# state, the binary and the CPU profiles all stay under .bench_build/ in
# that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/zzbench"
mkdir -p "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root/zzbench" && go build -buildvcs=false -o "$out/zzbench" .)
exec "$out/zzbench" -profile-dir "$out/profiles" "$@"
