#!/usr/bin/env bash
# Builds the host-cost benchmark from the sources in the current checkout and
# runs it with the given arguments. Run it from the repository root:
#
#   bash hostbench/run.sh --workload paper-horus --seed 1 --seconds 20 --trace 0
#
# Build output, the Go build cache and the benchmark's result and trace files
# all stay under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOMODCACHE=$out/gomod
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=

(cd "$root/hostbench" && go build -o "$out/hostbench" .) >&2
exec "$out/hostbench" -out "$out" "$@"
