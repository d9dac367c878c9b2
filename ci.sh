#!/bin/sh
# CI gate: every PR must build cleanly, pass vet and the formatting
# check, pass the tier-1 test suite, and race-check the concurrent
# subsystems: the streaming engine, the Replay API layer (root package)
# and the consumelocald job manager. It also refuses committed build
# artifacts: a PR once shipped an 8.9 MB consumelocald binary at the
# repo root, and that class of mistake must never land again.
set -eux

# Guard: no tracked built binaries (by name) and no tracked file over
# 1 MB — source files are orders of magnitude smaller.
tracked_binaries="$(git ls-files | grep -E '(^|/)(consumelocal|consumelocald)$|\.(test|exe|o|a|so)$' || true)"
test -z "$tracked_binaries"
oversized="$(git ls-files -z | xargs -0 -r du -b -- | awk '$1 > 1048576 {print $2}')"
test -z "$oversized"

go build ./...
go vet ./...
# Repo-specific analyzers: borrowcheck, ctxsend, hotalloc, metricdecl,
# lockscope — see docs/LINT.md. The waiver ledger prints every
# //consumelocal:ignore marker (file:line, analyzer, reason) so the
# CI log shows exactly which findings are sanctioned and why.
vet_tool_dir="$(mktemp -d)"
trap 'rm -rf "$vet_tool_dir"' EXIT
go build -o "$vet_tool_dir/consumelocal-vet" ./cmd/consumelocal-vet
go vet -vettool="$vet_tool_dir/consumelocal-vet" ./...
"$vet_tool_dir/consumelocal-vet" -ledger
fmt_drift="$(gofmt -s -l .)"
test -z "$fmt_drift"
go test ./...
# internal/obs is in the set because the replay stage counters are
# written from the engine's feed goroutine and its workers at once, and
# internal/matching because every engine worker matches concurrently
# through the policies' pooled scratch.
go test -race . ./internal/engine/... ./cmd/consumelocald/... ./internal/obs/... \
	./internal/joblog/... ./internal/loadgen/... ./internal/sim/... ./internal/swarm/... \
	./internal/matching/...
# The engine's feed hands window marks to a collector goroutine while
# the workers settle them and the sinks run: repeat the tests that pin
# that hand-off's ordering (backpressure, cancellation, error order,
# live watermarks, overlap, a lagging sink) under the race detector,
# with the swarm buffer pool's and the shard merge's, since the
# workers' user ledger maps now travel to the collector as the result.
go test -race -count=5 -run 'TestStream(Backpressure|Context|Propagates|SinkOverlapsFeed|SlowSink)|TestLiveSource|TestSwarmPoolBound|TestMergeKeepsShardLedgers' ./internal/engine/
# The ingest queue's producers and its consumer share one condition
# variable; a producer arms its cancellation wake-up only once it has
# to wait, and the consumer once per context: repeat the ingest
# hand-off tests (batch refusals, waits woken by their own context or
# by a push, the daemon's ingest endpoint) under the race detector.
go test -race -count=10 -run 'TestIngest|TestPushBatch' . ./cmd/consumelocald/
# Metrics lint: every /metrics scrape must parse under the exposition
# linter (HELP/TYPE metadata, histogram suffixes, no duplicate series)
# and expose the documented families — see docs/OBSERVABILITY.md.
go test -count=1 -run 'TestMetrics|TestHealthzPayload' ./cmd/consumelocald
go test -count=1 -run 'TestParseExposition|TestObsCounterAllocs|TestScrapeSteadyStateAllocs' ./internal/obs
# Benchmark smoke: one iteration of every Go benchmark (make bench,
# make microbench), so they can't bit-rot unnoticed.
go test -run '^$' -bench . -benchtime 1x ./...
# Load-harness smoke: spawn a real consumelocald and drive a small
# concurrent fleet through the loadtest subcommand; the report must be
# well-formed with zero 5xx — see docs/LOADTEST.md.
./loadtest-smoke.sh
# Fault-injection smoke: same harness with -chaos — SIGKILL and restart
# a durable daemon mid-run; the report must show a clean recovery and a
# reconciled session ledger — see docs/DURABILITY.md.
./chaos-smoke.sh
# Metrics smoke: boot a real daemon, run a generator job, scrape the
# documented series (the replay stage counters included) and drive the
# SIGTERM drain through a real signal — see docs/OBSERVABILITY.md.
./metrics-smoke.sh
