#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments. Run it from the repository root:
#
#   bash spanbench/run.sh --workload churn-steady --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary, temporary build files and each run's
# scratch files stay under .bench_build in the repository root.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS= GOENV=off GOPROXY=off
(cd spanbench && go build -o "$out/spanbench" .)
exec "$out/spanbench" "$@"
