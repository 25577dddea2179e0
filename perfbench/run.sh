#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g.: bash perfbench/run.sh --workload flow-cold --seed 1 --seconds 20 --trace 0
# Run it from the repository root. Everything the Go toolchain writes
# (build cache, temporary files, the binary) goes under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
