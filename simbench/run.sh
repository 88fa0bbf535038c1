#!/usr/bin/env bash
# Builds simbench from this checkout's sources and runs it. Run from the
# repository root; arguments pass through to the benchmark:
#
#   bash simbench/run.sh --workload paper-dmr --seed 1 --seconds 60 --trace 0
#
# Every build artefact, cache and temporary file stays under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/simbench"
mkdir -p "$out/cache" "$out/tmp" "$out/config"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off
go build -C simbench -buildvcs=false -o "$out/simbench" .
commit=unknown
if [ -d .git ]; then
	commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
SIMBENCH_COMMIT=$commit exec "$out/simbench" "$@"
