#!/usr/bin/env bash
# Builds the benchmark program from the checkout it runs in and executes it
# with the given arguments (see perfbench/README.md). Run from the root of
# the repository: bash perfbench/run.sh --workload relabel-fanout --seed 1
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$PWD/$out ;; esac
mkdir -p "$out/tmp"
# Keep every build artifact and temporary file inside the checkout and
# never reach for a toolchain or module download: the module has no
# external requirements.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOENV=off GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
