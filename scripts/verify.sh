#!/bin/sh
# Repository verify recipe, in tiers:
#   1. format + tier-1: gofmt, build + full test suite (the gate every
#      change must pass), plus vet and tests of the separate perfbench
#      module, which the root go build/test never compile (~6 s on 2 vCPU);
#      a go-test `func Benchmark` outside perfbench/ fails the tier, since
#      no tier runs or gates one and perfbench is the benchmark of record;
#      so does a `package main` under examples/ or an examples/ directory
#      without a `func Example`, since go test pins each example's output;
#      and so does the reachability lint, scripts/unreached: every declared
#      non-test function must be linked by a root or be inlinable. Its
#      roots are the module's main packages (cmd/*, scripts/*), the
#      examples/* test binaries, the perfbench binary and the exported
#      functions of the root package; a function only tests reach is
#      deleted, moved into its package's _test.go, or kept on the lint's
#      allowlist, whose every entry names the tests that use it as an
#      oracle
#   2. artefact tier: every checked-in results/ artefact regenerated from
#      the CLIs and compared byte for byte (cmp) — the reproduction's
#      numbers may not drift silently — plus `repro all` and the sweep grid
#      again at -j 1, so the parallel dispatch order cannot leak into their
#      bytes (~35 s on 2 vCPU)
#   3. race tier: the packages that run simulations concurrently, under the
#      race detector (parallel engine, checkpointed cell runner, views of
#      the shared warm cache template, decoded stream store, suite memo,
#      sweep grid, fault fan-out, and the server's concurrent-load test)
#   4. chaos tier: the resilience tests — injected panics, hangs and crashes
#      driven through the par chaos hook, checkpoint/resume byte-identity,
#      server overflow shedding and drain/resume, and the fleet
#      coordinator's checkpoint, resume and local fallback (even under
#      SERA_SKIP_FLEET=1) — under the race detector,
#      since failure paths exercise the locking the happy path never touches
#   5. audit tier: cmd/seraudit -quick under the race detector — every
#      invariant check (conservation, differential oracles, server
#      properties, and static-bounds: analytic AVF bounds dominating
#      simulated AVF per structure and bit class) over a small seed sweep;
#      plus a short go-native fuzz pass over each harness, the lane engine
#      against the single-step reference interpreter, the deadness
#      kernel against its def-use oracle, copy-on-touch cache views against
#      deep clones, the π-bit replay against its map oracle and the fault
#      campaign's compact stream records against the trace injector
#      included (skip with SERA_SKIP_FUZZ=1 when iterating)
#   6. smoke tier: the real seratd binary booted on an ephemeral port,
#      health-checked, served a cached eval and SIGINT-drained
#   7. fleet tier: the coordinator/worker suite under the race detector,
#      the fleet-identity invariant (fleet CSV ≡ local CSV under injected
#      worker crash/hang/error/slow chaos) and the real-process fleet
#      smoke: a coordinator plus two worker daemons, one killed -9
#      mid-sweep, byte-identical output demanded anyway. Skip with
#      SERA_SKIP_FLEET=1 when iterating on unrelated code
#   8. bench tier: the paired performance gate, scripts/benchgate — the
#      benchmark of record (perfbench) run on HEAD and on the working tree
#      in 10 alternating pairs per workload; a metric fails when at least 8
#      pairs are worse and its median is worse than HEAD's by more than its
#      BENCHMARK.json bound (4–9 min on 2 vCPU). To gate a commit rather
#      than uncommitted changes, run `go run ./scripts/benchgate BASE`
#
# Opt-outs, for iterating on unrelated code — never for shipping:
#   SERA_SKIP_FUZZ=1   skip the go-native fuzz passes (tier 5)
#   SERA_SKIP_FLEET=1  skip the fleet race/invariant/smoke suite (tier 7)
set -eux

fmtdirs="$(gofmt -l cmd internal examples scripts perfbench *.go)"
[ -z "$fmtdirs" ] || { echo "gofmt needed: $fmtdirs" >&2; exit 1; }
if grep -rln --include='*_test.go' --exclude-dir=perfbench '^func Benchmark' .; then echo "go-test benchmarks belong in perfbench/" >&2; exit 1; fi
if grep -rl --include='*.go' --exclude='*_test.go' '^package main' examples || for d in examples/*/; do grep -qs '^func Example' "$d"*_test.go || echo "$d"; done | grep .; then echo "examples/ are package Examples go test runs, not mains" >&2; exit 1; fi

go build ./...
go run ./scripts/unreached
go vet ./...
go test ./...
(cd perfbench && go vet ./... && go test ./...)
# artefact tier: regenerate results/ with the commands EXPERIMENTS.md lists
art=$(mktemp -d)
go build -o "$art/" ./cmd/repro ./cmd/sweep
"$art/repro" all > "$art/repro_all.txt"
cmp "$art/repro_all.txt" results/repro_all.txt
# the roster walk on one worker: its dispatch order must not reach the bytes
"$art/repro" -j 1 all > "$art/repro_all_j1.txt"
cmp "$art/repro_all_j1.txt" results/repro_all.txt
{ "$art/repro" -core ooo table1 && "$art/repro" -core ooo structures; } > "$art/repro_ooo.txt"
cmp "$art/repro_ooo.txt" results/repro_ooo.txt
"$art/sweep" -benches mcf,gzip-graphic,ammp -policies baseline,squash-l1 \
	-iqsizes 16,32,64,128 > "$art/sweep_iqsize.csv"
cmp "$art/sweep_iqsize.csv" results/sweep_iqsize.csv
# the same grid on one worker: dispatch order must not reach the bytes
"$art/sweep" -j 1 -benches mcf,gzip-graphic,ammp -policies baseline,squash-l1 \
	-iqsizes 16,32,64,128 > "$art/sweep_iqsize_j1.csv"
cmp "$art/sweep_iqsize_j1.csv" results/sweep_iqsize.csv
rm -rf "$art"
go test -race ./internal/par ./internal/checkpoint ./internal/cache ./internal/workload ./internal/core ./internal/sweep ./internal/fault ./internal/server ./internal/static
go test -race -run 'Chaos|CrashResume|Resilien|Collect|Partial|Checkpoint|Resume|Overflow|Drain|SingleFlight|Identity|Fallback' \
	./internal/par ./internal/checkpoint ./internal/fault ./internal/sweep \
	./internal/server ./internal/fleet ./cmd/sweep ./cmd/sersim ./cmd/repro
go run -race ./cmd/seraudit -quick
if [ -z "${SERA_SKIP_FUZZ:-}" ]; then
	go test -run NONE -fuzz FuzzParseList -fuzztime 10s ./internal/spec
	go test -run NONE -fuzz FuzzParsePolicy -fuzztime 10s ./internal/core
	go test -run NONE -fuzz FuzzCheckpointLoad -fuzztime 10s ./internal/checkpoint
	go test -run NONE -fuzz FuzzEvalRequest -fuzztime 10s ./internal/server
	go test -run NONE -fuzz FuzzSweepRequest -fuzztime 10s ./internal/server
	go test -run NONE -fuzz FuzzJobPath -fuzztime 10s ./internal/server
	go test -run NONE -fuzz FuzzLeaseRequest -fuzztime 10s ./internal/fleet
	go test -run NONE -fuzz FuzzWorkerRegister -fuzztime 10s ./internal/fleet
	go test -run NONE -fuzz FuzzStaticBound -fuzztime 10s ./internal/static
	go test -run NONE -fuzz FuzzLaneMatchesReference -fuzztime 10s ./internal/pipeline
	go test -run NONE -fuzz FuzzDeadnessMatchesDefUse -fuzztime 10s ./internal/ace
	go test -run NONE -fuzz FuzzWrongRecRoundTrip -fuzztime 10s ./internal/workload
	go test -run NONE -fuzz FuzzViewMatchesClone -fuzztime 10s ./internal/cache
	go test -run NONE -fuzz FuzzDataflowMatchesMapOracle -fuzztime 10s ./internal/pibit
	go test -run NONE -fuzz FuzzRecorderMatchesTrace -fuzztime 10s ./internal/fault
fi
sh scripts/smoke_seratd.sh
if [ -z "${SERA_SKIP_FLEET:-}" ]; then
	go test -race ./internal/fleet
	go run -race ./cmd/seraudit -check fleet-identity -quick
	sh scripts/smoke_fleet.sh
fi
go run ./scripts/benchgate
