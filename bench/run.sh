#!/usr/bin/env bash
# Builds the benchmark, aced and cifpack from this checkout into
# .bench_build/bin and runs the benchmark with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload flat-chips --seed 1 --seconds 25 --trace 0
#   bash bench/run.sh compare parent.jsonl change.jsonl
#
# The Go build cache and every temporary file stay under .bench_build,
# so a run writes nothing outside the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -o "$out/bin/" ./cmd/aced ./cmd/cifpack
(cd bench && go build -o "$out/bin/bench" .)
exec "$out/bin/bench" "$@"
