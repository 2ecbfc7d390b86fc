#!/usr/bin/env bash
# Builds srnode and the ledger from source, then runs the ledger with the
# arguments given. Run from the root of the checkout:
#
#   bash bench/run.sh                      every workload once, untraced then traced
#   bash bench/run.sh -sets 5              five untraced sets and the spread table
#   bash bench/run.sh --workload oltp-mem --seed 1 --seconds 20 --trace 0
#
# Everything built or written lands in .bench_build/ (and bench/out/ for
# -sets), both gitignored; statedirs go to /dev/shm and are removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

# Without the program there is nothing to build or measure; say so before
# any process is started.
if [[ ! -f go.mod || ! -d cmd/srnode ]]; then
	echo "bench/run.sh: no go.mod and cmd/srnode in $PWD: the benchmark needs the program's source" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/gotmp" "$build/config/go/telemetry"
# Keep the toolchain's own files inside the checkout too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off
# With a fresh config directory the go command detaches a telemetry child
# that outlives it; telemetry off means no such child is started.
echo off >"$build/config/go/telemetry/mode"

go build -o "$build/bin/srnode" ./cmd/srnode
go -C bench build -o "$build/bin/ledger" ./ledger
exec "$build/bin/ledger" -srnode "$build/bin/srnode" -rundir "$build/run" "$@"
