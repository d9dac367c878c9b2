#!/bin/sh
# loadtest-smoke: end-to-end check of the load harness against a real
# daemon. Builds consumelocald, lets `consumelocal loadtest` spawn it
# and drive a small fleet (~64 clients for a few seconds), then asserts
# the report is well-formed: sessions actually flowed, latency
# histograms filled, the /metrics cross-check ran and reconciles (the
# daemon counted exactly the sessions the fleet saw acknowledged), and
# — the headline CI gate — zero 5xx responses. Run via
# `make loadtest-smoke`.
set -eu

workdir="$(mktemp -d)"
cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT INT TERM

go build -o "$workdir/consumelocald" ./cmd/consumelocald
go run ./cmd/consumelocal loadtest \
    -daemon "$workdir/consumelocald" \
    -clients 64 -duration 5s -rate 400 -burst 64 \
    -scale 0.001 -o "$workdir/BENCH_daemon.json"

report="$workdir/BENCH_daemon.json"
test -s "$report"

# jq-free JSON assertions, in the spirit of metrics-smoke.sh: the keys
# are stable (they are the loadgen.Report schema) and indented one per
# line.
grep -q '"http_5xx": 0,' "$report" || {
    echo "loadtest-smoke: daemon returned 5xx under load" >&2
    cat "$report" >&2
    exit 1
}
grep -q '"sessions_accepted": [1-9]' "$report" || {
    echo "loadtest-smoke: no sessions ingested" >&2
    cat "$report" >&2
    exit 1
}
# Spawn mode: nothing but the fleet talks to the daemon, so the skew
# section's client and server session ledgers must agree exactly.
grep -Eq '"diff": 0,?$' "$report" || {
    echo "loadtest-smoke: client and server session ledgers disagree (skew.diff)" >&2
    cat "$report" >&2
    exit 1
}
grep -q '"jobs_opened": [1-9]' "$report"
grep -q '"sessions_per_sec": [1-9]' "$report"
grep -q '"p95_ms"' "$report"
grep -q '"server": {' "$report"
grep -q '"rss_peak_bytes": [1-9]' "$report"

sps="$(sed -n 's/.*"sessions_per_sec": \([0-9.]*\).*/\1/p' "$report" | head -n 1)"
echo "loadtest-smoke OK: $sps sessions/s, zero 5xx, session ledger diff 0"
