#!/usr/bin/env bash
# Builds the pipeline benchmark from this checkout's sources and runs it.
# Run from the repository root; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload local-commit --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, the go command's own config and telemetry
# files, and run records all stay under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" --out "$out/runs" "$@"
