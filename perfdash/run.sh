#!/usr/bin/env bash
# Entry point of the repository benchmark. Run it from the repository root:
#
#   bash perfdash/run.sh --workload search-miss --seed 1 --seconds 26 --trace 0
#
# It builds cmd/dashserve and the perfdash load generator from source into
# .bench_build/ (Go build cache included, so nothing is written outside
# the checkout), then runs the load generator with the given arguments.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/dashserve" ] || [ ! -f "$root/perfdash/go.mod" ]; then
	echo "perfdash: run from the repository root: go.mod, cmd/dashserve and perfdash/ must be present" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/bin/dashserve" ./cmd/dashserve
(cd "$root/perfdash" && go build -o "$out/bin/perfdash" .)
exec "$out/bin/perfdash" -root "$root" -dashserve "$out/bin/dashserve" "$@"
