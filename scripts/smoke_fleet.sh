#!/bin/sh
# Smoke test for seratd fleet mode with a real mid-sweep worker kill:
#
#   1. boot two worker daemons and a coordinator (one worker pre-registered
#      via -workers, the other joining itself via -join);
#   2. run a baseline sweep on a lone worker and keep its CSV bytes;
#   3. submit the same grid to the coordinator, kill -9 one worker while
#      the sweep is in flight, and require the job to finish anyway;
#   4. require the fleet CSV to be byte-identical to the lone-worker CSV;
#   5. SIGINT the coordinator and require a clean drain.
#
# Exercises the real binaries, real TCP, a real process death and the
# requeue path (a failed lease moves to the surviving worker) that the
# in-process suites drive only through injected chaos.
set -eu

workdir=$(mktemp -d)
trap 'kill "$w1pid" "$w2pid" "$copid" 2>/dev/null || true; rm -rf "$workdir"' EXIT
w1pid=; w2pid=; copid=

go build -o "$workdir/seratd" ./cmd/seratd
go build -o "$workdir/httpget" ./scripts/httpget

boot() { # boot NAME EXTRA-FLAGS... — start a daemon, wait for its portfile
	name=$1; shift
	"$workdir/seratd" -addr 127.0.0.1:0 -portfile "$workdir/$name.port" \
		"$@" >"$workdir/$name.log" 2>&1 &
	bootpid=$!
	for i in $(seq 1 100); do
		[ -s "$workdir/$name.port" ] && break
		kill -0 "$bootpid" 2>/dev/null || { cat "$workdir/$name.log"; echo "$name died at boot" >&2; exit 1; }
		sleep 0.1
	done
	[ -s "$workdir/$name.port" ] || { echo "$name never wrote -portfile" >&2; exit 1; }
}

fetch() { # fetch ADDR PATH [POST-BODY]
	"$workdir/httpget" "http://$1$2" "${3:-}"
}

boot w1; w1pid=$bootpid; w1=$(cat "$workdir/w1.port")
boot co -coordinator -workers "$w1"; copid=$bootpid; co=$(cat "$workdir/co.port")
boot w2 -join "$co"; w2pid=$bootpid; w2=$(cat "$workdir/w2.port")
grep -q 'joined fleet' "$workdir/w2.log"

grid='{"benches":["gzip-graphic","mcf"],"policies":["baseline","squash-l1"],"iqsizes":[16,64],"commits":2000000}'

# Baseline: the same grid on the lone first worker, straight to CSV.
id=$(fetch "$w1" /v1/sweep "$grid" | sed 's/.*"id":"\([^"]*\)".*/\1/')
fetch "$w1" "/v1/jobs/$id/events" >/dev/null # blocks until terminal
fetch "$w1" "/v1/jobs/$id/csv" >"$workdir/local.csv"
grep -q 'policy' "$workdir/local.csv"

# Fleet run: submit to the coordinator, then kill one worker mid-sweep.
id=$(fetch "$co" /v1/sweep "$grid" | sed 's/.*"id":"\([^"]*\)".*/\1/')
sleep 0.3
fetch "$co" "/v1/jobs/$id" >"$workdir/at-kill"
grep -q '"state":"done"' "$workdir/at-kill" && { echo "sweep finished before the kill — grow the grid" >&2; exit 1; }
kill -9 "$w2pid"
echo "killed worker w2 ($w2) mid-sweep"
fetch "$co" "/v1/jobs/$id/events" >"$workdir/events"
grep -q '"state":"done"' "$workdir/events" || { cat "$workdir/events" "$workdir/co.log"; echo "fleet job did not finish" >&2; exit 1; }
fetch "$co" "/v1/jobs/$id/csv" >"$workdir/fleet.csv"

cmp "$workdir/local.csv" "$workdir/fleet.csv" || { echo "fleet CSV differs from lone-worker CSV" >&2; exit 1; }

# The coordinator's metrics must aggregate the fleet view.
fetch "$co" /metrics | grep -q '"fleet"'

# SIGINT the coordinator: clean drain, exit 0.
kill -INT "$copid"
i=0
while kill -0 "$copid" 2>/dev/null; do
	i=$((i + 1))
	[ "$i" -gt 300 ] && { cat "$workdir/co.log"; echo "coordinator did not exit after SIGINT" >&2; exit 1; }
	sleep 0.1
done
wait "$copid" || { cat "$workdir/co.log"; echo "coordinator exited non-zero" >&2; exit 1; }
grep -q 'drained' "$workdir/co.log"

kill -INT "$w1pid" 2>/dev/null || true
echo "seratd fleet smoke: OK"
