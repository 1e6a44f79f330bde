#!/bin/sh
# Reach census: which functions under internal/ does no shipped command
# enter? Builds every command with coverage over the whole module, runs
# them over one set of workloads into one GOCOVERDIR, and prints, per
# package, the functions no run entered (`go tool covdata func`). Each
# of those must be named in DESIGN.md's "Never entered by a command"
# section, with the path that needs it; one that is not is a failure.
#
# The workloads: the seed-42 experiments run with the three behavioural
# modes (its report.txt and results/ land in WORKDIR, for check.sh to
# compare with the committed ones) and one table of a small run; then
# quicsim, which serves the universe's own QUIC, HTTP/3 and HTTPS
# servers on loopback (tracing, its /metrics scraped once), scanned by
# qscanner (plain, -rescan, -retries with -versions and -qlog-dir, and
# each mode), tlsscan, zmapquic (a -hitlist scan with -pcap, -blocklist
# and -metrics-addr; a two-shard -journal prefix campaign stopped
# mid-sweep and resumed; a sweep to -output none) and dnsscan against a
# loopback port nobody listens on. Needs curl for the scrape.
#
#	scripts/reach.sh [WORKDIR]     # ≈ 60 s; WORKDIR (default: a new temporary one) is kept
set -eu
cd "$(dirname "$0")/.."
repo=$(pwd)
work=${1:-$(mktemp -d)}
mkdir -p "$work"
work=$(cd "$work" && pwd)
bin=$work/bin
cov=$work/cov
rm -rf "$cov"
mkdir -p "$bin" "$cov" "$work/loop"

echo "reach: building the commands with -cover"
go build -cover -coverpkg=quicscan/... -o "$bin/" ./cmd/...
export GOCOVERDIR="$cov"

echo "reach: experiments, seed 42, with the three modes"
"$bin/experiments" -scale 2048 -seed 42 -fingerprint -migration -resumption \
	-out "$work/report.txt" -tsv "$work/results" 2>"$work/experiments.err"
"$bin/experiments" -quick -scale 16384 -run T1 >/dev/null 2>>"$work/experiments.err"

cd "$work/loop"
base=$((20000 + $$ % 20000))
"$bin/quicsim" -count 6 -base-port "$base" -ca ca.pem -qlog-dir qlog-sim \
	-metrics-addr 127.0.0.1:0 >manifest.tsv 2>quicsim.err &
sim=$!
trap 'kill -INT $sim 2>/dev/null || true' EXIT
for _ in $(seq 100); do
	[ "$(grep -c -v '^#' manifest.tsv || true)" -ge 6 ] && break
	sleep 0.1
done
port=$(awk -F'\t' '!/^#/ {print $1; exit}' manifest.tsv)
sni=$(awk -F'\t' '!/^#/ {print $5; exit}' manifest.tsv)
if [ -z "$port" ]; then
	echo "reach: quicsim did not start:" >&2
	cat quicsim.err >&2
	exit 1
fi
echo "reach: quicsim on 127.0.0.1:$base-$((base + 5)), scanned by each command"

# qscanner: every served deployment once, then the variants on the first.
awk -F'\t' '!/^#/ {print $1, $5}' manifest.tsv | while read -r p s; do
	"$bin/qscanner" -addr 127.0.0.1 -port "$p" -sni "$s" -timeout 2s >/dev/null 2>>qscanner.err || true
done
echo "127.0.0.1,$sni" >targets.txt
echo 127.0.0.2 >>targets.txt
"$bin/qscanner" -targets targets.txt -port "$port" -rescan -timeout 500ms >/dev/null 2>>qscanner.err || true
"$bin/qscanner" -targets targets.txt -port "$port" -retries 1 -retry-backoff 50ms -timeout 300ms \
	-versions draft-29,ietf-01 -qlog-dir qlog >/dev/null 2>>qscanner.err || true
for mode in fingerprint migration resumption; do
	"$bin/qscanner" -"$mode" -addr 127.0.0.1 -port "$port" -sni "$sni" >/dev/null 2>>qscanner.err || true
done

"$bin/tlsscan" -addr 127.0.0.1 -port "$port" -sni "$sni" >/dev/null 2>tlsscan.err || true

# zmapquic: a hitlist scan, captured, with a blocklist and metrics.
printf '127.0.0.1\n127.0.0.3\n::1\n' >hitlist.txt
echo 127.0.0.3/32 >blocklist.txt
"$bin/zmapquic" -hitlist hitlist.txt -port "$port" -cooldown 300ms -pcap scan.pcap \
	-blocklist blocklist.txt -metrics-addr 127.0.0.1:0 >/dev/null 2>zmapquic.err || true

# A two-shard campaign, stopped mid-sweep and resumed from its
# checkpoint, then a sweep whose records are discarded.
set -- -prefixes 127.0.0.0/20 -port "$port" -rate 1500 -cooldown 200ms -shards 2 -workers 2 \
	-checkpoint ckpt.json -checkpoint-every 100ms -output sweep.ndjson -journal
"$bin/zmapquic" "$@" 2>>zmapquic.err &
campaign=$!
sleep 1
kill -TERM $campaign
wait $campaign || true
"$bin/zmapquic" "$@" -resume 2>>zmapquic.err || true
"$bin/zmapquic" -prefixes 127.0.0.1/32 -port "$port" -cooldown 100ms -output none 2>>zmapquic.err || true

# One past the last deployment: a port nobody listens on.
echo example.org >names.txt
"$bin/dnsscan" -server "127.0.0.1:$((base + 6))" -names names.txt -timeout 200ms >/dev/null 2>dnsscan.err || true

# quicsim's /metrics, scraped once before it stops.
metrics=$(sed -n 's|.*metrics on \(http://[^ ]*\)|\1|p' quicsim.err)
curl -sf "$metrics" >metrics.txt || echo "reach: could not scrape $metrics" >&2

kill -INT $sim
wait $sim || true
trap - EXIT
cd "$repo"

# The census: every function under internal/ that no run entered, as
# pkg.Type.Method or pkg.Func (the form DESIGN.md names them in), less
# the Frame markers: a method with no statement is never seen entered.
go tool covdata func -i "$cov" |
	awk '$1 ~ /^quicscan\/internal\// && $NF == "0.0%" && $2 !~ /\.frameType$/ {
		n = split($1, f, "/"); sub(/\.go:.*/, "", f[n]); pkg = f[n - 1]
		name = $2; gsub(/\*/, "", name)
		print pkg "." name
	}' | sort -u >"$work/never.txt"
go tool covdata textfmt -i "$cov" -o "$work/profile.txt"
statements=$(awk -F'[ ]' '$1 ~ /^quicscan\/internal\// {n += $2; if ($3 == 0) z += $2} END {print z " of " n}' "$work/profile.txt")

# DESIGN.md's section names each such function in a code span, before
# its table of fields (a ### heading).
awk '/^## [0-9]+\. Never entered by a command/ {on = 1; next} /^##/ {on = 0} on' DESIGN.md |
	grep -o '`[a-z][a-z0-9]*\.[A-Za-z_][A-Za-z0-9_.]*`' | tr -d '`' | sort -u |
	while read -r name; do [ -d "internal/${name%%.*}" ] && echo "$name"; done >"$work/listed.txt" || true
unlisted=$(comm -23 "$work/never.txt" "$work/listed.txt")
entered=$(comm -13 "$work/never.txt" "$work/listed.txt")

echo "reach: $(wc -l <"$work/never.txt") functions under internal/ never entered ($statements statements), by package:"
sed 's/\..*//' "$work/never.txt" | uniq -c
if [ -n "$entered" ]; then
	echo "reach: listed in DESIGN.md but entered by this run (a path the workloads may or may not take):"
	echo "$entered" | sed 's/^/  /'
fi
if [ -n "$unlisted" ]; then
	echo "reach: never entered by a command and not listed in DESIGN.md (delete it, move it into its tests,"
	echo "reach: reach it with a command run here, or list it with the path that needs it):"
	echo "$unlisted" | sed 's/^/  /'
	exit 1
fi
echo "reach: OK"
