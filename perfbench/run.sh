#!/usr/bin/env bash
# Builds the system under test (the repository's command binaries) and the
# benchmark's generator from this checkout into .bench_build, then runs the
# generator with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload live-nginx --seed 1 --seconds 20 --trace 0
#
# Build output goes to standard error; the generator's last line on standard
# output is the JSON result. Everything is written under .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
bb="$root/.bench_build"
mkdir -p "$bb/bin" "$bb/gocache" "$bb/gopath" "$bb/tmp"
export GOCACHE="$bb/gocache" GOPATH="$bb/gopath" GOTMPDIR="$bb/tmp" TMPDIR="$bb/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$bb/bin/" ./cmd/lbd ./cmd/harvestd ./cmd/harvestagg ./cmd/rolloutd ./cmd/harvest ./cmd/tracecat >&2
(cd perfbench && go build -o "$bb/bin/perfbench" .) >&2
exec "$bb/bin/perfbench" -root "$root" -bin "$bb/bin" -work "$bb/run" "$@"
