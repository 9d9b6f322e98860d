#!/usr/bin/env bash
# Builds wasod and the perfbench load generator from this checkout, then
# runs one benchmark invocation:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything it builds or writes lands
# under .bench_build/ (Go caches included), so the checkout stays the only
# directory it touches.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/wasod" ]]; then
	echo "perfbench: run from the root of a waso checkout (cmd/wasod not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/home" "$out/gocache" "$out/gopath"
export HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go build -o "$out/wasod" ./cmd/wasod
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -wasod "$out/wasod" -out "$out/perfbench-out" "$@"
