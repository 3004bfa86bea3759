#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it is run
# from and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload renew_fleet --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# server's state directory all live under .bench_build/ in that root, so a
# run reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
# Let the build's writeback finish first: a cold build leaves ~150 MB of
# dirty pages whose flushing would slow the benchmark's own fsyncs.
sync -f "$out/perfbench" || true

exec "$out/perfbench" --state-dir "$out/state" "$@"
