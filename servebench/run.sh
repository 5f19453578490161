#!/usr/bin/env bash
# Builds the serving-plane benchmark from source and runs it. Run from
# the repository root:
#
#   bash servebench/run.sh --workload http-open --seed 1 --seconds 30 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in
# the current directory (Go build cache, module cache, temp files,
# decision journals, span dumps).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOENV=off GOTOOLCHAIN=local GOPROXY=off
cd "$root/servebench"
go build -o "$out/bin/servebench" .
cd "$root"
exec "$out/bin/servebench" "$@"
