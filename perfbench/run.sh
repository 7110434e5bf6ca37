#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload exhaust-cold --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binary, reports, trace files) goes
# under the build directory, $CARGO_TARGET_DIR or .bench_build at the root
# of the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/perfbench"

(
	cd "$root/perfbench"
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
		XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod \
		go build -trimpath -o "$build/perfbench/perfbench" .
)

cd "$root"
exec "$build/perfbench/perfbench" --out "$build/perfbench" "$@"
