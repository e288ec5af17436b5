#!/usr/bin/env bash
# Builds hostbench from the sources in this checkout and runs it, e.g.
#
#   bash hostbench/run.sh --workload ipc-paper5 --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (the Go build cache and the binary) goes
# to .bench_build at the checkout root; nothing is fetched.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
# The go command keeps telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"

(cd "$here" && go build -o "$out/hostbench" .)
cd "$root"
exec "$out/hostbench" -pins "$here/pins.json" "$@"
