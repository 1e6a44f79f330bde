#!/bin/sh
# Fuzz smoke: run every native fuzz target in the module for a few
# seconds each. The targets are discovered, not listed, so one added to
# any package is mutated from its first `make check` on. Seed corpora
# already run in the normal test suite; this adds a short mutation pass
# so parser regressions surface in `make check` rather than in a
# nightly job. Crashers land in the package's testdata/fuzz directory
# and from then on fail plain `go test`.
set -eu
cd "$(dirname "$0")/.."

FUZZTIME=${FUZZTIME:-5s}

# `go test -list` prints a package's matching names, then its "ok" line.
listing=$(go test -list '^Fuzz' ./...)
targets=$(echo "$listing" |
	awk '/^Fuzz/ { t[n++] = $1 } /^ok/ { for (i = 0; i < n; i++) print $2, t[i]; n = 0 }')
if [ -z "$targets" ]; then
	echo "fuzz smoke: found no fuzz target" >&2
	exit 1
fi
echo "$targets" | while read -r pkg target; do
	echo "==> go test -fuzz ^${target}\$ -fuzztime ${FUZZTIME} ${pkg}"
	go test -run '^$' -fuzz "^${target}\$" -fuzztime "${FUZZTIME}" "${pkg}" < /dev/null
done

echo "fuzz smoke: OK"
