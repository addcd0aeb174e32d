#!/usr/bin/env bash
# Builds the benchmark program from the checkout it is run in and runs it
# with the given flags, e.g.
#
#   bash perfbench/run.sh --workload fig9 --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. The build cache and the binary go
# to .bench_build/ there, so nothing is written outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod || ! -d internal ]]; then
	echo "perfbench: run from the root of a checkout of the sae module" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
