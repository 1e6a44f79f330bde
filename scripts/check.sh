#!/bin/sh
# Tier-1 verification gate: static checks plus the full test suite
# under the race detector (the transport read loops and the scanner's
# shared socket pool are concurrency-heavy; -race is non-negotiable),
# then the one performance gate: the repository benchmark against the
# committed BENCH_baseline.json.
#
# What the baseline holds on any host: the determinism fingerprints,
# `failed`, allocs_per_op, alloc_kb_per_op and heap_live_mb. Its timing
# metrics (setup_s, ops_per_s, cpu_us_per_op) and peak_rss_mb are a
# property of the host class it was recorded on, 2 vCPUs of a shared
# VM: on another class, re-record it first (`make bench-baseline`).
# That VM has faster and slower hours (scan-cold 1,885-2,210 targets/s,
# later 2,483-2,648, on one tree); the committed file is from the slower,
# so on a fast day the timing bounds are looser by that gap
# (DESIGN.md section 17).
# Counts that need no baseline at all are absolute ceilings in tier-1
# tests (budget_test.go, internal/core/budget_test.go).
set -eu
cd "$(dirname "$0")/.."

echo "==> gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "check: gofmt would rewrite:"
	echo "$unformatted"
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> dead declarations (deaddecl_test.go)"
# A package-level func, type or var under internal/ that nothing in the
# module names, a func or method no command links, and an exported field
# no program file sets or none reads (the typed field census; its
# exceptions are DESIGN.md section 19's table of fields). It is a tier-1
# test and so runs again below; it is named here because a failure is a
# request to delete, and says so sooner.
go test -count=1 -run '^TestNoDeadDeclarations$' .

echo "==> cross-build (darwin) and the portable netbatch fallback"
# The batched-I/O layer has a Linux syscall path and a portable
# fallback; building for darwin (and the portable tag on linux) keeps
# the non-Linux half of the build matrix from rotting, and the quic
# loopback tests drive the endpoint's one pump through the fallback.
GOOS=darwin GOARCH=arm64 go build ./...
go build -tags portable ./...
go test -tags portable ./internal/netbatch ./internal/quic

echo "==> go test -race ./... (Examples in their own step below)"
# Beside other packages' race tests a handshake can outlast its 2 s
# timer, and an Example's output is then no longer a function of its
# seed (raceEnabled in internal/experiments says the same of
# TestRunRepeats).
go test -race -skip '^Example' ./...

echo "==> registry exactly-once test, 20 runs under -race"
# Snapshots racing owners that attach, count and detach must see each
# event once (DESIGN.md section 7). An interleaving that counts one
# twice or not at all is rare, so the test runs twenty times.
go test -race -count=20 -run '^TestAttachExactlyOnce$' ./internal/telemetry

echo "==> sweep receive lifecycle and its counts, 20 runs under -race"
# Collect's collectors racing a cancel in the send or in the cooldown,
# and snapshots racing a list scan's and a campaign's detach
# (DESIGN.md sections 7 and 9).
go test -race -count=20 -run '^TestSweep' ./internal/campaign
go test -race -count=20 -run '^TestStatsFeedTheirSeries$' ./internal/zmapquic

echo "==> demux under -race, 20 runs"
# One route table, one lock: connections registered, given a second ID
# and retired from many goroutines, a Listener closed under its closing
# connections, and a Transport closed under dials in set-up (DESIGN.md
# section 5, Locks). The hand-off from pumps to executors: a held
# connection stalls no other handshake on its socket, its queued burst
# runs in arrival order, it queues at most rxQueueCap datagrams and
# counts the rest as queue_full, and Close leaves no executor and no
# queued node (section 5, One pump per socket, executors per endpoint).
go test -race -count=20 -run '^(TestRouteTableConcurrent|TestListenerCloseRacesConnCloses|TestTransportCloseRacesDialSetUp|TestHeldConnDoesNotStallItsSocket|TestHeldConnBurstRunsInArrivalOrder|TestHeldConnQueueIsBounded|TestCloseStopsExecutors)$' ./internal/quic

echo "==> simnet send path under -race, 20 runs"
# Senders take no lock of the socket's and read-lock one cell of the
# network's: writes racing Rebind and Close, socket churn racing
# delivery, and the rebind tests they share the reads with (DESIGN.md
# section 8, Send path and lock order).
go test -race -count=20 -run '^(TestSendRacesRebindAndClose|TestSocketChurnRacesDelivery|TestRebind|TestRebindClosed)$' ./internal/simnet

echo "==> loopback universe, 5 runs under -race"
# The universe's own servers on kernel sockets, scanned over the kernel
# stack and compared with the same deployments on simnet (DESIGN.md
# section 1), and a ServeLoopback that meets a taken port closing what
# it opened. Each run binds fresh loopback ports below the ephemeral
# range.
go test -race -count=5 -run '^(TestLoopbackServesTheModelledWorld|TestServeLoopbackFailureClosesWhatItOpened)$' ./internal/internet

echo "==> go test -cpu 1,2,4 (root package, internal/quic, h3, core, resumption, migration, fingerprint, listscan, probe, simnet, dnsclient, dnsserver, internet, netbatch, experiments, zmapquic, campaign, telemetry, bench)"
# Core count is a test dimension: the scanner's default socket pool is a
# constant, so that a rescan dials from the same source ports on any
# host, and TestDefaultPoolSize holds it at every width. The rescan
# paths (core, resumption) ride along, and so does the list-scan pool:
# internal/listscan holds it, with its ordering, in-scan emit and
# cancellation tests, and internal/probe stays while the tests that
# drive a real mode through it (TestRun, TestRunCancelled) live there.
# So does the socket layer: a receive-queue wake-up that is lost only when
# reader and sender run in parallel passes on one CPU. The campaign is
# here for its stage overlap (DESIGN.md section 18): two sweeps, a TLS
# scan and the stateful pass share the CPUs, so how many there are
# decides which stage waits for which, and the tables must not care.
# The stateless scanner, the campaign engine and the benchmark are here
# because the response collector and the senders' yield after each batch
# (the list scan's, the engine's unit loop's) only do their work when
# sender and receiver share a P, or only when they do not: a sender that
# never yields passes on two cores and starves its collector and the
# in-process responders on one. bench's dense ledger scan (40,000
# answered probes, 20 ms cooldown) is the canary that caught it. The
# engine's per-batch publish of its probe counters rides on that yield,
# so its exactness on every way out of Run is checked at each width too.
# The registry is here because the cell of a counter that an update
# lands in depends on which goroutine runs where, and the totals must not.
# The simulated servers (the DNS server, the universe's listeners) are
# here because simnet calls them on whichever goroutine sends, so how
# their calls interleave depends on how many run at once. The migration
# and fingerprint modes are here because their verdicts rest on
# Conn.Ping, which is woken by a channel that ACK processing closes,
# possibly on another P at the same moment. HTTP/3 is here because a
# stream read is woken through its connection's lock by whichever P
# processes the datagram that completes it.
go test -cpu 1,2,4 . ./internal/quic ./internal/h3 ./internal/core ./internal/resumption ./internal/migration \
	./internal/fingerprint ./internal/listscan \
	./internal/probe ./internal/simnet ./internal/dnsclient ./internal/dnsserver ./internal/internet \
	./internal/netbatch ./internal/experiments ./internal/zmapquic ./internal/campaign ./internal/telemetry ./bench

echo "==> GOEXPERIMENT=synctest go test -cpu 1,2,4 -run TestScanRepeatsInBubble ./internal/internet"
# Time is exact in a synctest bubble: an impaired scan must repeat target for target under its seed at every width.
GOEXPERIMENT=synctest go test -count=1 -cpu 1,2,4 -run TestScanRepeatsInBubble ./internal/internet

echo "==> Examples at GOMAXPROCS=1,2,4, then under -race one package at a time"
# `go test -cpu 1,2,4` runs each Example once, at the first width, so
# the widths are a loop here. Each Example's output is a function of its
# seed at every width.
examples="./internal/core ./internal/analysis ./internal/experiments"
for procs in 1 2 4; do
	GOMAXPROCS=$procs go test -count=1 -run '^Example' $examples
done
go test -race -p 1 -count=1 -run '^Example' $examples

echo "==> seed-42 report and TSVs equal the committed ones, then the reach census"
# report.txt and results/ are what this command writes, byte for byte;
# the manifest.json beside them holds wall-clock values and is not
# committed. The three behavioural modes ride along so that their tables
# (FINGERPRINT, MIGRATION, RESUMPTION) are byte-compared too. The run is
# the first workload of scripts/reach.sh, made by the commands built with
# coverage; the census of the functions no command enters follows it
# (DESIGN.md section 19). About 80 s, which is why it is here and not a
# tier-1 test.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
reach=0
./scripts/reach.sh "$tmp/reach" || reach=$?
diff report.txt "$tmp/reach/report.txt"
diff -r --exclude=manifest.json results "$tmp/reach/results"
[ "$reach" -eq 0 ]

echo "==> fuzz smoke"
FUZZTIME=${FUZZTIME:-5s} ./scripts/fuzz-smoke.sh

echo "==> benchmark gate (bench/run.sh -seed 9 against BENCH_baseline.json)"
# Four workloads, medians of 5 x 3 s repetitions each, judged against
# the bounds in BENCHMARK.json: about two minutes. The run lands in a
# throwaway file; only `make bench-baseline` writes the committed one.
benchout=$tmp/bench.json
bench/run.sh -seed 9 -out "$benchout"
./scripts/bench-gate.sh BENCH_baseline.json "$benchout"

echo "==> handshake fast path + telemetry overhead (self-judging benchmarks)"
# Three timing relations no workload measures: resumed <= 0.5x full
# handshake wall clock, telemetry overhead <= 5 % on the stateful scan
# and <= 25 % on the two-worker sweep. Each is the median of 50
# interleaved pairs inside one benchmark that fails itself. They run
# here and in no tier-1 test (a timing must never decide `go test
# ./...`), the first two on one P: with two, the telemetry median swings
# by several percent either way on an idle host. The sweep arm is the
# other way round: what it holds is two workers contending for the same
# counters, which takes two Ps.
go test -run '^$' -bench 'ResumedHandshakeRatio$|TelemetryOverhead$/stateful' -cpu 1 -benchtime 50x .
go test -run '^$' -bench 'TelemetryOverhead$/sweep' -cpu 2 -benchtime 50x .

echo "check: OK"
