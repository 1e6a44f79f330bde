GO ?= go

.PHONY: build test check bench bench-baseline allocs cpu-sweep fuzz soak

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

# CPU nanoseconds per swept probe, by bucket: SendProbe's locks, ID
# derivation, the send path, the telemetry it moves, simnet, the engine's walk
# (scripts/cpu.sh; before/after tables in DESIGN.md).
cpu-sweep:
	./scripts/cpu.sh

# Short native-fuzzing smoke over every fuzz target in the module.
fuzz:
	./scripts/fuzz-smoke.sh

# Chaos/soak tier: the extended impairment sweep behind EXPERIMENTS.md
# (minutes of runtime, race detector on).
soak:
	SOAK=1 $(GO) test -race -v -run 'Chaos' ./internal/chaos/
