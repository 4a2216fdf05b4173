#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload emulate-dacapo --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build in
# the current directory: the Go build cache, the binary, and each run's
# scratch stores and libraries (removed when the run ends).
set -euo pipefail
root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod \
	GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
