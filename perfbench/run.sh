#!/usr/bin/env bash
# Builds the benchmark and the mdrank worker from this checkout's sources,
# then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-dlb --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
out="$build/perfbench"
mkdir -p "$out"

export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"

go -C perfbench build -o "$out/perfbench" .
go -C perfbench build -o "$out/mdrank" permcell/cmd/mdrank
"$out/perfbench" -out "$out" -mdrank "$out/mdrank" "$@"
