GO ?= go

.PHONY: build test check bench allocs fuzz soak

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 gate: vet + full suite under the race detector + fuzz smoke.
check:
	./scripts/check.sh

# Root benchmark harness; results land in BENCH_<date>.json (see
# scripts/bench.sh for BENCH/BENCHTIME/OUT overrides).
bench:
	./scripts/bench.sh

# Allocations and bytes per scanned target, by layer: our packages, the
# standard library as we call it, and crypto/tls as the floor we do not
# own (scripts/allocs.sh; before/after tables in DESIGN.md).
allocs:
	./scripts/allocs.sh

# Short native-fuzzing smoke over every parser-facing target.
fuzz:
	./scripts/fuzz-smoke.sh

# Chaos/soak tier: the extended impairment sweep behind EXPERIMENTS.md
# (minutes of runtime, race detector on).
soak:
	SOAK=1 $(GO) test -race -v -run 'Chaos' ./internal/chaos/
