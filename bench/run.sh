#!/usr/bin/env bash
# Builds dnhbench from the checkout's sources and becomes it.
#
# The build output and Go's build cache go under .bench_build/ in the
# checkout, so nothing is read or written outside it. The script execs
# the binary: the process the caller started IS the benchmark, with no
# child left to outlive a kill (go run would leave one).
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$out/dnhbench" .)
cd "$root"
exec "$out/dnhbench" "$@"
