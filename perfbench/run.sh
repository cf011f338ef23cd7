#!/usr/bin/env bash
# Builds cmd/serve and the perfbench harness from this checkout into
# .bench_build/, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it builds, caches or writes
# stays under .bench_build/ in that root.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/serve || ! -d internal ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/serve and internal/ not found)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOTOOLCHAIN=local GOWORK=off

go build -o "$out/serve" ./cmd/serve >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -serve "$out/serve" -out "$out" "$@"
