#!/bin/sh
# Live heap by owning package and allocation site, the memory
# counterpart of scripts/allocs.sh: what is still reachable in the state
# bench/'s heap_live_mb is defined in — every scanner closed, the
# universe still up.
#
#   ./scripts/heap.sh [passes]
#
# It runs BenchmarkUniverseScan for PASSES passes (default 320, about
# the 41,400 ops of a 15 s scan-cold run) over every responsive
# deployment of the seed-9, scale-2048 universe, under -memprofilerate,
# and reads the heap profile `go test` writes after a forced collection
# once the benchmark is done: the benchmark closes its scanner and
# leaves the universe running. Each sampled stack is charged to the
# innermost frame that is ours (quicscan/internal/<package>.<function>);
# a stack with no such frame is "other" (the test harness, the runtime's
# own). The last table buckets the same samples by what they belong to:
#
#   route table    quic's routeTable and routeShard: live routes and the
#                  tombstones of closed connections
#   zone           the DNS zone (internet's buildZone, dnsserver.Zone)
#   source lists   internet's buildSourceLists: the domain source lists
#   listeners      the started QUIC servers (internet's startQUICServer,
#                  quic.Listen and the Listener, the h3 servers)
#   rest           everything else
#
# -memprofilerate 4096 samples an allocation of n bytes with probability
# ≈ n / 4096, fine enough for rows of 0.01 MB and cheap enough to scan
# at nearly full speed; "profiled" against the benchmark's own
# heap-live-MB (HeapAlloc after runtime.GC) shows how close it came.
set -eu
cd "$(dirname "$0")/.."

PASSES=${1:-320}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

live=$(go test -run '^$' -cpu 2 -bench 'UniverseScan$' -benchtime "${PASSES}x" \
	-memprofilerate 4096 -memprofile "$dir/heap.prof" -o "$dir/quicscan.test" . |
	awk '/^BenchmarkUniverseScan/ { for (i = 3; i < NF; i++) if ($(i+1) == "heap-live-MB") print $i }')

go tool pprof -sample_index=inuse_space -unit=B -traces "$dir/quicscan.test" "$dir/heap.prof" 2>/dev/null |
	awk -v live="$live" -v passes="$PASSES" '
function flush(    i, f, owner, site, bucket) {
	if (depth == 0) return
	owner = "other"; site = "(no frame of ours) " stack[0]; bucket = ""
	for (i = 0; i < depth; i++) {
		f = stack[i]
		if (bucket == "") {
			if (f ~ /^quicscan\/internal\/quic\.\(\*route(Table|Shard)\)/) bucket = "route table"
			else if (f ~ /^quicscan\/internal\/(internet\.\(\*Universe\)\.buildZone|dnsserver\.\(\*Zone\))/) bucket = "zone"
			else if (f ~ /^quicscan\/internal\/internet\.\(\*Universe\)\.buildSourceLists/) bucket = "source lists"
			else if (f ~ /^quicscan\/internal\/(internet\.\(\*Universe\)\.startQUICServer|quic\.Listen$|quic\.\(\*Listener\)|h3\.\(\*Server\))/) bucket = "listeners"
		}
		if (owner == "other" && f ~ /^quicscan\/internal\//) {
			site = f; sub(/^quicscan\/internal\//, "", site); sub(/ \(inline\)$/, "", site)
			owner = site; sub(/\..*/, "", owner)
		}
	}
	if (bucket == "") bucket = "rest"
	pkg[owner] += value; at[site] += value; by[bucket] += value; total += value
	depth = 0
}
/^-----------\+/ { flush(); next }
/^ +bytes:/ { next }
/^ +-?[0-9]+B? +[^ ]/ { v = $1; sub(/B$/, "", v); value = v + 0; stack[0] = $2; depth = 1; next }
depth > 0 && /^ +[^ ]/ { stack[depth++] = $1 }
function mb(x) { return x / 1048576 }
function table(title, arr,    k, n, i, j, t, keys) {
	n = 0
	for (k in arr) if (mb(arr[k]) >= 0.005) keys[++n] = k
	for (i = 2; i <= n; i++) for (j = i; j > 1 && arr[keys[j]] > arr[keys[j-1]]; j--) { t = keys[j]; keys[j] = keys[j-1]; keys[j-1] = t }
	printf "\n%-58s %8s\n", title, "MB"
	for (i = 1; i <= n && i <= 20; i++) printf "%-58s %8.2f\n", keys[i], mb(arr[keys[i]])
}
END {
	flush()
	printf "live heap after %d passes, scanner closed, universe up: %.2f MB (HeapAlloc), %.2f MB profiled\n", passes, live, mb(total)
	table("by owning package", pkg)
	table("by allocation site (top 20)", at)
	printf "\n%-58s %8s\n", "by what it belongs to", "MB"
	split("route table|zone|source lists|listeners|rest", order, "|")
	for (i = 1; i <= 5; i++) printf "%-58s %8.2f\n", order[i], mb(by[order[i]])
}'
