GO ?= go

.PHONY: build test check bench bench-baseline allocs heap cpu-sweep cpu-scan fuzz soak

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 gate: vet + full suite under the race detector + fuzz smoke +
# the benchmark against BENCH_baseline.json.
check:
	./scripts/check.sh

# The repository benchmark (bench/README.md): the untraced set, then the
# traced per-layer ledger, into bench/out/.
bench:
	bench/run.sh

# Re-records the baseline `make check` compares against; nothing else
# writes that file. Run it on a quiet host of the reference class, in
# its own commit, after a change that is meant to move a metric.
bench-baseline:
	bench/run.sh -seed 9 -out BENCH_baseline.json

# Allocations and bytes per scanned target, by layer: our packages, the
# standard library as we call it, and crypto/tls as the floor we do not
# own (scripts/allocs.sh; before/after tables in DESIGN.md).
allocs:
	./scripts/allocs.sh

# Live heap by owning package and allocation site, with every scanner
# closed and the universe up — the state heap_live_mb is read in
# (scripts/heap.sh; before/after table in DESIGN.md).
heap:
	./scripts/heap.sh

# CPU nanoseconds per swept probe, by bucket: SendProbe's locks, ID
# derivation, the send path, the telemetry it moves, simnet's locks, the rest
# of simnet, the universe's responder, the engine's walk (scripts/cpu.sh;
# before/after tables in DESIGN.md).
cpu-sweep:
	./scripts/cpu.sh

# CPU microseconds per scanned target, by the goroutine that spent them:
# the pumps, the executors, the scan workers, the connection timers,
# crypto/tls's handshake goroutines, the runtime; and how many of the 2
# cores the scan kept busy (scripts/cpu.sh; before/after table in
# DESIGN.md).
cpu-scan:
	./scripts/cpu.sh scan

# Short native-fuzzing smoke over every fuzz target in the module.
fuzz:
	./scripts/fuzz-smoke.sh

# Soak tier: the impaired universe's loss sweep behind EXPERIMENTS.md
# (minutes of runtime, race detector on).
soak:
	SOAK=1 $(GO) test -race -count=1 -v -run 'TestStatefulScanBehaviours' ./internal/internet/
