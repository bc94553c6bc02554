#!/usr/bin/env bash
# Builds crserve, crshard and the load generator from this checkout and runs
# one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet-batch-nba --seed 7 --seconds 10 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the checkout: the
# Go build cache, the binaries, the server logs and the span files.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/crserve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (need go.mod, cmd/crserve and perfbench/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# Keep the toolchain's caches and scratch space inside the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/bin/" ./cmd/crserve ./cmd/crshard
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" "$@"
