#!/bin/sh
# Smoke test for the seratd daemon: boot it on an ephemeral port, check
# /healthz answers ok, serve one cached evaluation, run one priced sweep job
# to its CSV, answer two bound queries (the second served from the decoded
# stream the first left in the store), refuse an eval whose commit count
# is past the served cap with 400 and stay up, then SIGINT it and require
# a clean drain (exit 0). Exercises the real binary and signal path that the
# in-process httptest suite cannot.
set -eu

workdir=$(mktemp -d)
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/seratd" ./cmd/seratd
"$workdir/seratd" -addr 127.0.0.1:0 -portfile "$workdir/port" \
	-checkpoint "$workdir/ck" >"$workdir/log" 2>&1 &
pid=$!

# Wait for the daemon to publish its bound address.
for i in $(seq 1 100); do
	[ -s "$workdir/port" ] && break
	kill -0 "$pid" 2>/dev/null || { cat "$workdir/log"; echo "seratd died" >&2; exit 1; }
	sleep 0.1
done
[ -s "$workdir/port" ] || { echo "seratd never wrote -portfile" >&2; exit 1; }
addr=$(cat "$workdir/port")

fetch() { # fetch PATH [POST-BODY] — stdlib-only HTTP client, no curl needed
	go run ./scripts/httpget "http://$addr$1" "${2:-}"
}

# Health, one eval miss, its byte-identical hit.
fetch /healthz | grep -q '^ok$'
body='{"experiment":"table1","benches":["gzip-graphic","ammp"],"commits":8000}'
fetch /v1/eval "$body" >"$workdir/miss"
fetch /v1/eval "$body" >"$workdir/hit"
cmp "$workdir/miss" "$workdir/hit"
grep -q 'no squashing' "$workdir/miss"

# A 2-cell sweep: priced at admission, followed to done, served as CSV.
fetch /v1/sweep '{"benches":["mcf"],"policies":["baseline","squash-l1"],"commits":8000}' >"$workdir/sweep"
grep -q '"priced":true' "$workdir/sweep"
id=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' "$workdir/sweep")
[ -n "$id" ] || { cat "$workdir/sweep"; echo "no job id in the sweep 202" >&2; exit 1; }
fetch "/v1/jobs/$id/events" | tail -n 1 | grep -q '"state":"done"'
fetch "/v1/jobs/$id/csv" >"$workdir/csv"
[ "$(wc -l <"$workdir/csv")" -eq 3 ] || { cat "$workdir/csv"; echo "want a header and 2 rows" >&2; exit 1; }
head -n 1 "$workdir/csv" | grep -q '^bench,'

# One static bound, and the sweep was priced exactly once.
fetch '/v1/bound?bench=mcf&policy=squash-l1&commits=8000' | grep -q '"est_cycles"'
fetch /metrics | grep -q '"sweeps_priced": 1[,}]'
# The fresh daemon's first eval decoded its streams.
fetch /metrics | grep -q '"streams_decoded": [1-9]'
# A bound for the same benchmark at another commit target misses the result
# cache but finds the decoded stream in the store.
stream_hits() { fetch /metrics | sed -n 's/.*"stream_hits": \([0-9]*\).*/\1/p'; }
h0=$(stream_hits)
fetch '/v1/bound?bench=mcf&policy=squash-l1&commits=9000' | grep -q '"est_cycles"'
h1=$(stream_hits)
[ -n "$h0" ] && [ "$h1" -gt "$h0" ] || { echo "stream_hits went from '$h0' to '$h1' on a repeated bound" >&2; exit 1; }

# A commit count past the cap is a 400, not a stream reservation the
# runtime cannot make; the daemon must still be serving afterwards.
if fetch /v1/eval '{"experiment":"table1","benches":["mcf"],"commits":1000000000000}' >"$workdir/huge" 2>"$workdir/huge.err"; then
	cat "$workdir/huge"; echo "eval with 10^12 commits was accepted" >&2; exit 1
fi
grep -q '^400 ' "$workdir/huge.err" || { cat "$workdir/huge.err" "$workdir/log"; echo "eval with 10^12 commits did not answer 400" >&2; exit 1; }
fetch /healthz | grep -q '^ok$'

# SIGINT must drain and exit 0.
kill -INT "$pid"
i=0
while kill -0 "$pid" 2>/dev/null; do
	i=$((i + 1))
	[ "$i" -gt 300 ] && { cat "$workdir/log"; echo "seratd did not exit after SIGINT" >&2; exit 1; }
	sleep 0.1
done
wait "$pid" || { cat "$workdir/log"; echo "seratd exited non-zero" >&2; exit 1; }
grep -q 'drained' "$workdir/log"
trap 'rm -rf "$workdir"' EXIT
echo "seratd smoke: OK"
