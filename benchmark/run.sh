#!/usr/bin/env bash
# Builds the benchmark from source into benchmark/.bench_build/ and runs
# it with the given arguments, for example
#
#	bash benchmark/run.sh --workload steady-1m --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, module cache,
# temporary files and toolchain configuration all live under
# benchmark/.bench_build/, so a run reads and writes nothing outside the
# checkout. Without the parent module (../go.mod) the build fails and
# the script exits non-zero before printing any result.
set -euo pipefail

out="$(pwd)/benchmark/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

go build -C benchmark -o "$out/anomalia-bench" .
exec "$out/anomalia-bench" "$@"
