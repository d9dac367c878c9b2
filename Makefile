GO ?= go
REF ?= HEAD

.PHONY: all build vet lint test race bench microbench metrics-smoke loadtest loadtest-smoke chaos-smoke figures-diff ci

all: build

## build: compile every package and both binaries
build:
	$(GO) build ./...

## vet: static analysis over the whole module
vet:
	$(GO) vet ./...

## lint: formatting gate (gofmt -s) plus the repo's own go/analysis
## suite — borrowcheck, ctxsend, hotalloc, metricdecl, lockscope —
## followed by the waiver ledger (see docs/LINT.md)
lint:
	@drift="$$(gofmt -s -l .)"; if [ -n "$$drift" ]; then \
		echo "gofmt -s needed on:"; echo "$$drift"; exit 1; \
	fi
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/consumelocal-vet" ./cmd/consumelocal-vet && \
	$(GO) vet -vettool="$$tmp/consumelocal-vet" ./... && \
	"$$tmp/consumelocal-vet" -ledger

## test: the tier-1 suite
test:
	$(GO) test ./...

## race: race-check the concurrent subsystems (Replay API layer,
## streaming engine, stage counters, reference simulator, matching
## policies, daemon job manager, job journal, load generator,
## incremental swarm)
race:
	$(GO) test -race . ./internal/engine/... ./internal/obs/... ./internal/sim/... ./internal/matching/... \
		./cmd/consumelocald/... ./internal/joblog/... ./internal/loadgen/... ./internal/swarm/...

## bench: the reproduction's benchmark report at reduced scale (the
## gated end-to-end benchmark is perfbench/, see BENCHMARK.json)
bench:
	$(GO) test -bench=. -benchtime=1x .

## loadtest: the full-scale daemon hammer — spawns its own consumelocald,
## drives 256 concurrent clients for 30s and prints the JSON report
## (sessions/s, latency percentiles, error counts, /metrics cross-check;
## see docs/LOADTEST.md). The gated benchmark is perfbench/.
loadtest:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/consumelocald" ./cmd/consumelocald && \
	$(GO) run ./cmd/consumelocal loadtest -daemon "$$tmp/consumelocald" -o "$$tmp/report.json" && \
	cat "$$tmp/report.json"

## loadtest-smoke: small-fleet end-to-end check of the load harness
## (64 clients, self-spawned daemon, asserts a well-formed report with
## zero 5xx) — part of ci
loadtest-smoke:
	./loadtest-smoke.sh

## chaos-smoke: fault-injection end-to-end check — loadtest -chaos
## SIGKILLs and restarts a durable daemon mid-run, then the report must
## show a clean recovery (ledger_ok, zero 5xx) — part of ci
chaos-smoke:
	./chaos-smoke.sh

## microbench: the hot-path micro-benchmarks (tracker settlement, batch
## sweeper, matching — sorting and pre-ordered — and booking on the
## gated workloads' interval shapes, CSV fast lane, shard batch feed,
## a live evening and an hourly-windowed catch-up month through the
## engine) at full bench time
microbench:
	$(GO) test -run '^$$' -bench 'BenchmarkTrackerAdvance|BenchmarkSweeper|BenchmarkScannerScan|BenchmarkShardBatchFeed|BenchmarkStreamLiveEvening|BenchmarkStreamCatchUpHourly|BenchmarkMatchInto|BenchmarkBookInterval' \
		./internal/swarm/ ./internal/trace/ ./internal/engine/ ./internal/matching/ ./internal/sim/

## figures-diff: build cmd/consumelocal at REF (default HEAD) and from
## the working tree, run `all -scale 0.003 -days 14 -tsv` with both and
## require byte-identical text and TSVs; prints OK or the first file
## that differs. Not in ci: a CI clone may lack REF
figures-diff:
	./figures-diff.sh "$(REF)"

## metrics-smoke: boot a real consumelocald, run a generator job via
## the HTTP API, scrape /metrics and require the documented series,
## then SIGTERM it and require a clean graceful exit
metrics-smoke:
	./metrics-smoke.sh

## ci: what every PR must pass — see ci.sh
ci:
	./ci.sh
