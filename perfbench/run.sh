#!/usr/bin/env bash
# Builds raysched, rayschedd and the benchmark from this checkout's sources
# into .bench_build/, then runs the benchmark with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 45 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# Keep every build artefact, temporary file and tool setting inside the
# checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go build -o "$out/bin/" ./cmd/raysched ./cmd/rayschedd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
