#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of the checkout. Everything the build and the run
# leave behind (Go build cache, binary, data directories, spans, reports)
# goes under $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

# Keep the toolchain's caches and config inside the checkout, and never
# reach for the network: the module has no dependencies outside it.
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=mod

if ! go -C "$root/perfbench" build -o "$out/perfbench" .; then
	echo "perfbench: build failed (run from the root of a full checkout)" >&2
	exit 1
fi
exec "$out/perfbench" -root "$root" -out "$out" "$@"
