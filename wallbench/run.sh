#!/usr/bin/env bash
# Builds wallbench from the sources of the checkout it sits in and runs
# it with the given arguments, e.g.
#
#   bash wallbench/run.sh --workload tsqr-leaf --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files,
# telemetry, the binary) stays under .bench_build at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd "$root/wallbench" && go build -o "$out/wallbench" .)
exec "$out/wallbench" "$@"
