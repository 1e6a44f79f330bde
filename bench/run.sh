#!/usr/bin/env bash
# Builds the benchmark once and runs it.
#
#   bench/run.sh                     the untraced set, then the traced set, into bench/out/
#   bench/run.sh --workload W ...    one run; the arguments go to the binary unchanged
#                                    (this is the command BENCHMARK.json names)
#
# Everything it writes stays inside the checkout: the binary and the Go
# build cache under .bench_build/, results and traces under bench/out/.
set -euo pipefail
cd "$(dirname "$0")/.."

build=$PWD/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOFLAGS=-trimpath GOTOOLCHAIN=local
# The binary pins both itself; exported so that a child it starts agrees.
export GOMAXPROCS=2 GOGC=100
go build -o "$build/quicscan-bench" ./bench

if [ $# -gt 0 ]; then
	exec "$build/quicscan-bench" "$@"
fi

if pgrep -x quicscan-bench >/dev/null; then
	echo "bench/run.sh: another quicscan-bench process is alive; two runs on one host measure each other" >&2
	exit 1
fi
start=$SECONDS
"$build/quicscan-bench" -trace 0 -out bench/out/untraced.json
"$build/quicscan-bench" -trace 1 -out bench/out/traced.json
echo "bench/run.sh: both sets took $((SECONDS - start)) s; results in bench/out/"
