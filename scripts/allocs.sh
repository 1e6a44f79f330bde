#!/bin/sh
# Per-target allocation attribution (ROADMAP item 8, step one): runs
# BenchmarkQScannerTarget under -memprofilerate=1 and prints allocs and
# bytes per scanned target by layer.
#
#   ./scripts/allocs.sh
#
# The benchmark's set-up (building and starting the simulated Internet)
# allocates far more than a scan does, so the profile of a BASE-iteration
# run is subtracted from the profile of a BASE+N-iteration run (pprof
# -base): what is left is N targets, plus whatever the two set-ups did
# differently (DNS retries, mostly). Each sampled stack is charged to
# the innermost frame that is ours or crypto/tls's:
#
#   <package>        the allocation site is in quicscan/internal/<package>
#   stdlib via us    a standard-library helper one of our packages called
#   crypto/tls       everything beneath crypto/tls: the floor we do not own
#   other            the benchmark loop, frames nobody above owns, and any
#                    stack through a package a scan never enters (dns*,
#                    tlsscan, experiments, ...): set-up residue
#
# The profiler does not see objects served by the runtime's tiny
# allocator, so the rows sum to 85-88 % of the benchmark's allocs/op; the
# gap is printed as its own row.
set -eu
cd "$(dirname "$0")/.."

N=500    # targets attributed
BASE=100 # iterations of the run whose profile is subtracted
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

run() { # iterations, profile
	go test -run '^$' -cpu 1 -bench 'QScannerTarget$' -benchmem -benchtime "$1x" \
		-memprofilerate=1 -memprofile "$2" -o "$dir/quicscan.test" . |
		awk '/^BenchmarkQScannerTarget/ { for (i = 3; i < NF; i++) if ($(i+1) == "allocs/op") a = $i; else if ($(i+1) == "B/op") b = $i } END { print a, b }'
}
run "$BASE" "$dir/base.prof" > /dev/null
set -- $(run $((BASE + N)) "$dir/full.prof")
bench_allocs=$1 bench_bytes=$2

traces() { # sample index
	go tool pprof -sample_index="$1" -unit=B -base "$dir/base.prof" -traces \
		"$dir/quicscan.test" "$dir/full.prof" 2>/dev/null
}
{ traces alloc_objects; echo "=== bytes"; traces alloc_space; } | awk -v n="$N" -v ba="$bench_allocs" -v bb="$bench_bytes" '
function flush(    i, f, layer) {
	if (depth == 0) return
	layer = ""
	for (i = 0; i < depth; i++) {
		f = stack[i]
		if (f ~ /^quicscan\/internal\/(dns|tlsscan|experiments|zmapquic|altsvc|analysis|asdb)/) { layer = "other"; break }
		if (layer != "") continue
		if (f ~ /^crypto\/tls\./) layer = "crypto/tls"
		else if (f ~ /^quicscan\/internal\//) {
			sub(/^quicscan\/internal\//, "", f); sub(/\..*/, "", f)
			layer = (i == 0) ? f : "stdlib via us"
			owner = f
		}
	}
	if (layer == "") layer = "other"
	if (layer == "stdlib via us" && !bytes) via[owner] += value
	if (bytes) by[layer] += value; else al[layer] += value
	seen[layer] = 1
	depth = 0
}
/^=== bytes/ { flush(); bytes = 1; next }
/^-----------\+/ { flush(); next }
/^ +bytes:/ { next }
/^ +-?[0-9]+B? +[^ ]/ { v = $1; sub(/B$/, "", v); value = v + 0; stack[0] = $2; depth = 1; next }
depth > 0 && /^ +[^ ]/ { stack[depth++] = $1 }
END {
	flush()
	printf "%-18s %14s %14s\n", "layer", "allocs/target", "bytes/target"
	split("quicwire quiccrypto transportparams quic h3 core simnet", order, " ")
	for (i = 1; i <= 7; i++) { row(order[i]); done[order[i]] = 1 }
	done["stdlib via us"] = done["crypto/tls"] = done["other"] = 1
	for (l in seen) if (!(l in done)) row(l)
	row("stdlib via us")
	printf "%-18s %14.1f %14.0f\n", "ours", oa / n, ob / n
	printf "%-18s %14.1f %14.0f\n", "crypto/tls", al["crypto/tls"] / n, by["crypto/tls"] / n
	printf "%-18s %14.1f %14.0f\n", "other", al["other"] / n, by["other"] / n
	ta = oa + al["crypto/tls"] + al["other"]; tb = ob + by["crypto/tls"] + by["other"]
	printf "%-18s %14.1f %14.0f\n", "profiled", ta / n, tb / n
	printf "%-18s %14.1f %14.0f\n", "unprofiled (tiny)", ba - ta / n, bb - tb / n
	printf "%-18s %14d %14d   (profile covers %.1f %% of allocs/op)\n", "benchmark", ba, bb, 100 * ta / n / ba
	printf "\nstdlib via us, by calling package:"
	for (p in via) if (via[p] / n >= 0.05) printf " %s %.1f", p, via[p] / n
	printf "\n"
}
function row(l) {
	if (!(l in seen) || (al[l] / n < 0.05 && al[l] / n > -0.05)) return
	printf "%-18s %14.1f %14.0f\n", l, al[l] / n, by[l] / n
	oa += al[l]; ob += by[l]
}'
