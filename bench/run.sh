#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash bench/run.sh --workload topk-open --seed 1 --seconds 20 --trace 0
#
# Every argument is passed to the benchmark binary. The build output, the Go
# build cache and the span files all stay under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build), so a run reads and writes
# nothing outside the checkout. The first build compiles the standard library
# into that cache; later builds are incremental.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

(
	cd "$root/bench"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local \
		GOFLAGS= XDG_CONFIG_HOME="$out/config" \
		go build -o "$out/prefbench" .
)
exec "$out/prefbench" --spans-dir "$out/spans" "$@"
