#!/bin/sh
# CPU attribution, in two modes.
#
#   ./scripts/cpu.sh [sweep]    per swept probe, by the code that ran
#   ./scripts/cpu.sh scan       per scanned target, by the goroutine that ran it
#
# sweep runs BenchmarkEngineSweep — the campaign engine through
# Scanner.SendProbe onto the simnet of a started seed-9, scale-2048
# universe, over its allocated /24s and a dark /12, answered by the
# universe's own synthetic responder: the repository benchmark's
# sweep-vn with a smaller dark prefix — under -cpuprofile and prints
# nanoseconds of CPU per probe by bucket.
#
# Each sampled stack is charged to one bucket, by the innermost frame
# that is ours; frames of the runtime, sync, crypto and quicwire (the
# packet codec every layer calls) belong to whoever called them, so a
# hit's Version Negotiation build is the responder's and its parse the
# collector's:
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
#   responder        the universe's synthetic responder
#                    (Universe.syntheticQUIC) and below: what deliver
#                    pays for a datagram to an address without a socket
#   campaign walk    runShard, Sweep.AddrAtPosition, context, the Probe hook
#   collector        CollectResponsesOn and below, up to the socket
#   runtime/GC       stacks with no frame of ours: scheduler, GC, timers
#   other            the benchmark's own frames and its set-up, the
#                    universe's Build and Start among them
#
# The rows add up to the profile; "benchmark" is the process's CPU time
# as getrusage saw it, over the same probes, so the last line says how
# much of it the profile's samples cover.
#
# scan runs BenchmarkUniverseScan — every responsive deployment of the
# seed-9, scale-2048 universe scanned by 2 workers over a 2-socket pool,
# scan-cold's fixture — at -cpu 2 under -cpuprofile, and charges each
# sampled stack to the goroutine it ran on, by that goroutine's root
# frame:
#
#   pump             a socket's read loop: endpoint.pump
#   executor         a connection's receive work: endpoint.execute
#   scan worker      listscan's workers: a target's dial, HEAD and close,
#                    and the server side its sends run inline on simnet
#   conn timer       a connection's clock: the goroutines time.AfterFunc
#                    starts
#   tls handshake    crypto/tls's own handshake goroutine, which a
#                    QUICConn hands its CRYPTO data to and waits on
#   runtime/GC       goroutines the runtime starts: the collector, the
#                    scavenger, the scheduler
#   other            the rest: the HTTP/3 servers' goroutines, the
#                    benchmark's own
#
# A stack through the universe's set-up (internet.Build,
# Universe.Start) is left out of the rows and printed as "set-up". The
# last line is the profile's seconds over the scan's wall-clock seconds:
# how many of the 2 cores the scan kept busy, and so how much of them
# sat idle.
set -eu
cd "$(dirname "$0")/.."

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

if [ "${1:-sweep}" = scan ]; then
	N=60 # passes over the fixture's targets, after the one `go test` runs first
	set -- $(go test -run '^$' -cpu 2 -bench 'UniverseScan$' -benchtime "${N}x" \
		-cpuprofile "$dir/cpu.prof" -o "$dir/quicscan.test" . |
		awk '/^BenchmarkUniverseScan/ { ns = $3; for (i = 3; i < NF; i++) if ($(i+1) == "targets") t = $i } END { print ns, t }')
	ns_per_pass=$1 targets=$2
	go tool pprof -unit=ms -traces "$dir/quicscan.test" "$dir/cpu.prof" 2>/dev/null |
		awk -v passes="$((N + 1))" -v targets="$targets" -v ns="$ns_per_pass" '
function flush(    i, root, bucket) {
	if (depth == 0) return
	root = stack[depth-1]; bucket = ""
	for (i = 0; i < depth; i++)
		if (stack[i] ~ /^quicscan\/internal\/internet\.(Build|\(\*Universe\)\.Start)/) bucket = "set-up"
	if (bucket != "") ;
	else if (root ~ /quic\.\(\*endpoint\)\.pump$/) bucket = "pump"
	else if (root ~ /quic\.\(\*endpoint\)\.execute$/) bucket = "executor"
	else if (root ~ /^quicscan\/internal\/listscan\.Run/) bucket = "scan worker"
	else if (root ~ /^time\.goFunc$/) bucket = "conn timer"
	else if (root ~ /^crypto\/tls\./) bucket = "tls handshake"
	else if (root ~ /^runtime\./) bucket = "runtime/GC"
	else bucket = "other"
	ms[bucket] += value
	depth = 0
}
/^-----------\+/ { flush(); next }
/^ +[0-9.]+ms +[^ ]/ { v = $1; sub(/ms$/, "", v); value = v + 0; stack[0] = $2; depth = 1; next }
depth > 0 && /^ +[^ ]/ { stack[depth++] = $1 }
END {
	flush()
	n = split("pump|executor|scan worker|conn timer|tls handshake|runtime/GC|other", order, "|")
	for (i = 1; i <= n; i++) total += ms[order[i]]
	per = passes * targets
	printf "%-16s %12s %8s\n", "goroutine", "us/target", "share"
	for (i = 1; i <= n; i++)
		printf "%-16s %12.1f %7.1f%%\n", order[i], ms[order[i]] * 1000 / per, 100 * ms[order[i]] / total
	printf "%-16s %12.1f   (%d targets: %d passes of %d)\n", "profiled", total * 1000 / per, per, passes, targets
	printf "%-16s %12.0f ms, not in the rows\n", "set-up", ms["set-up"]
	wall = ns * passes / 1e6
	printf "%-16s %12.2f   (%.0f ms of samples over %.0f ms of scanning: %.0f %% of 2 cores busy)\n", "profile/wall", total / wall, total, wall, 50 * total / wall
}'
	exit 0
fi

N=10 # sweeps of the universe's /24s and a /12, after the one `go test` runs first

set -- $(go test -run '^$' -cpu 2 -bench 'EngineSweep$' -benchtime "${N}x" \
	-cpuprofile "$dir/cpu.prof" -o "$dir/quicscan.test" . |
	awk '/^BenchmarkEngineSweep/ { for (i = 3; i < NF; i++) if ($(i+1) == "probes") p = $i; else if ($(i+1) == "cpu-ns/probe") c = $i } END { print p, c }')
probes=$1 bench_cpu=$2

go tool pprof -unit=ms -traces "$dir/quicscan.test" "$dir/cpu.prof" 2>/dev/null |
	awk -v probes="$probes" -v bench="$bench_cpu" '
function flush(    i, f, lock, bucket) {
	if (depth == 0) return
	bucket = ""; lock = 0
	for (i = 0; i < depth; i++)
		if (stack[i] ~ /^quicscan\/internal\/internet\.(Build|\(\*Universe\)\.Start)/) bucket = "other"
	for (i = 0; i < depth && bucket == ""; i++) {
		f = stack[i]
		if (f ~ /^sync\.\(\*(RW)?Mutex\)/) lock = 1
		else if (f ~ /zmapquic\.\(\*Scanner\)\.probeSum/) bucket = "ID derivation"
		else if (f ~ /^quicscan\/internal\/internet\./) bucket = "responder"
		else if (f ~ /^quicscan\/internal\/simnet\./) bucket = lock ? "simnet locks" : "simnet"
		else if (f ~ /^quicscan\/internal\/telemetry\./ && f !~ /\.CellIndex$/) bucket = "telemetry"
		else if (f ~ /zmapquic\.\(\*Scanner\)\.(SendProbe|fill|flush|leaseSendBatch|batchConn|template)/)
			bucket = lock ? "SendProbe locks" : "send"
		else if (f ~ /zmapquic\.\(\*Scanner\)\./) bucket = "collector"
		else if (f ~ /^quicscan\/internal\/campaign\.|zmapquic\.\(\*Sweep\)|zmapquic\.\(\*Limiter\)|\.ProbeWith\.|^context\./) bucket = "campaign walk"
		else if (f ~ /^quicscan/ && f !~ /^quicscan\/internal\/quicwire\./) bucket = "other"
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
	n = split("SendProbe locks|ID derivation|send|telemetry|simnet locks|simnet|responder|campaign walk|collector|runtime/GC|other", order, "|")
	for (i = 1; i <= n; i++) total += ms[order[i]]
	for (i = 1; i <= n; i++)
		printf "%-18s %12.1f %7.1f%%\n", order[i], ms[order[i]] * 1e6 / probes, 100 * ms[order[i]] / total
	printf "%-18s %12.1f\n", "profiled", total * 1e6 / probes
	printf "%-18s %12.1f   (the profile covers %.1f %% of it; %d probes)\n", "benchmark", bench, 100 * total * 1e6 / probes / bench, probes
}'
