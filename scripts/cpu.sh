#!/bin/sh
# Per-probe CPU attribution of the sweep (ROADMAP item 9): runs
# BenchmarkEngineSweep — the campaign engine through Scanner.SendProbe
# onto simnet, the repository benchmark's sweep-vn without a universe —
# under -cpuprofile and prints nanoseconds of CPU per probe by bucket.
#
#   ./scripts/cpu.sh
#
# Each sampled stack is charged to one bucket, by the innermost frame
# that is ours; frames of the runtime, sync and crypto belong to whoever
# called them:
#
#   SendProbe locks  a stack that passes through sync.(*Mutex) or
#                    sync.(*RWMutex) (and, below it, runtime.procyield, the
#                    semaphore, the futex) before it reaches zmapquic's
#                    send path
#   ID derivation    Scanner.probeSum and everything beneath it
#   send             the rest of SendProbe, fill and flush, the batch pool
#   telemetry        the registry's own frames, inlined or not (Counter.Add,
#                    Histogram.Observe), whichever layer called them:
#                    flush's seven updates (simnet counts its traffic in
#                    fields of its own, which the simnet rows hold, and
#                    telemetry.CellIndex belongs to whoever called it)
#   simnet locks     a stack that passes through sync.(*Mutex) or
#                    sync.(*RWMutex) before it reaches a simnet frame:
#                    the socket's and the network's locks and their waits
#   simnet           the rest of WriteBatch, deliver and below; the
#                    collector's reads
#   campaign walk    runShard, Sweep.AddrAtPosition, context, the Probe hook
#   collector        CollectResponsesOn and below, up to the socket
#   runtime/GC       stacks with no frame of ours: scheduler, GC, timers
#   other            the benchmark's own frames and its set-up
#
# The rows add up to the profile; "benchmark" is the process's CPU time
# as getrusage saw it, over the same probes, so the last line says how
# much of it the profile's samples cover.
set -eu
cd "$(dirname "$0")/.."

N=10 # sweeps of 2^20 + 2^8 probes, after the one `go test` runs first
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

set -- $(go test -run '^$' -cpu 2 -bench 'EngineSweep$' -benchtime "${N}x" \
	-cpuprofile "$dir/cpu.prof" -o "$dir/quicscan.test" . |
	awk '/^BenchmarkEngineSweep/ { for (i = 3; i < NF; i++) if ($(i+1) == "probes") p = $i; else if ($(i+1) == "cpu-ns/probe") c = $i } END { print p, c }')
probes=$1 bench_cpu=$2

go tool pprof -unit=ms -traces "$dir/quicscan.test" "$dir/cpu.prof" 2>/dev/null |
	awk -v probes="$probes" -v bench="$bench_cpu" '
function flush(    i, f, lock, bucket) {
	if (depth == 0) return
	bucket = ""; lock = 0
	for (i = 0; i < depth && bucket == ""; i++) {
		f = stack[i]
		if (f ~ /^sync\.\(\*(RW)?Mutex\)/) lock = 1
		else if (f ~ /zmapquic\.\(\*Scanner\)\.probeSum/) bucket = "ID derivation"
		else if (f ~ /^quicscan\/internal\/simnet\./) bucket = lock ? "simnet locks" : "simnet"
		else if (f ~ /^quicscan\/internal\/telemetry\./ && f !~ /\.CellIndex$/) bucket = "telemetry"
		else if (f ~ /zmapquic\.\(\*Scanner\)\.(SendProbe|fill|flush|leaseSendBatch|batchConn|template)/)
			bucket = lock ? "SendProbe locks" : "send"
		else if (f ~ /zmapquic\.\(\*Scanner\)\./) bucket = "collector"
		else if (f ~ /^quicscan\/internal\/campaign\.|zmapquic\.\(\*Sweep\)|zmapquic\.\(\*Limiter\)|\.ProbeWith\.|^context\./) bucket = "campaign walk"
		else if (f ~ /^quicscan/) bucket = "other"
	}
	if (bucket == "") bucket = "runtime/GC"
	ms[bucket] += value
	depth = 0
}
/^-----------\+/ { flush(); next }
/^ +[0-9.]+ms +[^ ]/ { v = $1; sub(/ms$/, "", v); value = v + 0; stack[0] = $2; depth = 1; next }
depth > 0 && /^ +[^ ]/ { stack[depth++] = $1 }
END {
	flush()
	printf "%-18s %12s %8s\n", "bucket", "ns/probe", "share"
	n = split("SendProbe locks|ID derivation|send|telemetry|simnet locks|simnet|campaign walk|collector|runtime/GC|other", order, "|")
	for (i = 1; i <= n; i++) total += ms[order[i]]
	for (i = 1; i <= n; i++)
		printf "%-18s %12.1f %7.1f%%\n", order[i], ms[order[i]] * 1e6 / probes, 100 * ms[order[i]] / total
	printf "%-18s %12.1f\n", "profiled", total * 1e6 / probes
	printf "%-18s %12.1f   (the profile covers %.1f %% of it; %d probes)\n", "benchmark", bench, 100 * total * 1e6 / probes / bench, probes
}'
