#!/usr/bin/env bash
# Builds the vnros benchmark from the sources of the checkout it is run
# from, then runs it:
#
#   bash benchmark/run.sh --workload filesrv|durable|echo|verify \
#       --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build outputs, the Go build cache,
# result records and traces all go under $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout: the go
# command's own config and telemetry directory move there too. The module
# has no dependency outside the checkout, so the build never downloads.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config \
	GOTOOLCHAIN=local GOFLAGS= GOPROXY=off

(cd "$root/benchmark" && go build -o "$out/vnros-benchmark" .)
exec "$out/vnros-benchmark" --out "$out/benchmark" "$@"
