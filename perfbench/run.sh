#!/usr/bin/env bash
# Builds the benchmark (perfbench/cmd/krspperf) and krspd from this
# checkout, then runs one workload:
#
#   bash perfbench/run.sh --workload mix-small --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. Every build product, the Go build
# cache, span dumps and krspd logs go to .bench_build/ there. The last line
# of standard output is the JSON result; build output goes to stderr.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

# Keep the toolchain's own files inside the checkout and never reach for
# the network: the module has no dependencies outside the repository.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$bench" && go build -o "$out/krspperf" ./cmd/krspperf) >&2
(cd "$bench/.." && go build -o "$out/krspd" ./cmd/krspd) >&2
exec "$out/krspperf" --krspd "$out/krspd" --out "$out" "$@"
