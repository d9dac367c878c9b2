package consumelocal_test

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"consumelocal"
	"consumelocal/internal/matching"
	"consumelocal/internal/obs"
	"consumelocal/internal/sim"
)

// scrape renders reg and parses it back through the exposition linter,
// so every instrumentation test doubles as a format check.
func scrape(t *testing.T, reg *consumelocal.Metrics) *obs.Exposition {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	return exp
}

// TestInstrumentationStreaming pins the stage accounting on the
// streaming engine: sessions read, windows settled and the three stage
// timers all land in the registry, and per-swarm results are untouched
// by instrumentation.
func TestInstrumentationStreaming(t *testing.T) {
	tr := replayTestTrace(t)
	reg := consumelocal.NewMetrics()
	job, err := consumelocal.Replay(context.Background(), consumelocal.TraceSource(tr),
		consumelocal.WithWindow(6*3600), consumelocal.WithInstrumentation(reg))
	if err != nil {
		t.Fatal(err)
	}
	windows := 0
	for range job.Snapshots() {
		windows++
	}
	res, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sim.Run(tr, consumelocal.DefaultSimConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	assertSwarmsIdentical(t, "instrumented streaming", res, plain)

	exp := scrape(t, reg)
	if got, _ := exp.Value("consumelocal_replay_source_sessions_total"); got != float64(len(tr.Sessions)) {
		t.Fatalf("sessions total = %g, want %d", got, len(tr.Sessions))
	}
	if got, _ := exp.Value("consumelocal_replay_windows_settled_total"); got != float64(windows) {
		t.Fatalf("windows settled = %g, want %d", got, windows)
	}
	for _, name := range []string{
		"consumelocal_replay_source_read_seconds_total",
		"consumelocal_replay_settle_seconds_total",
		"consumelocal_replay_sink_emit_seconds_total",
	} {
		if v, ok := exp.Value(name); !ok || v < 0 {
			t.Fatalf("stage timer %s = %g (present %v)", name, v, ok)
		}
	}
}

// timedPolicy wraps a matching policy and sums the wall-clock time
// every engine worker spends inside MatchInto.
type timedPolicy struct {
	matching.Policy
	nanos atomic.Int64
}

func (p *timedPolicy) MatchInto(a *matching.Allocation, peers []matching.Peer, demands, caps []float64, budget float64) error {
	t0 := time.Now()
	err := p.Policy.MatchInto(a, peers, demands, caps, budget)
	p.nanos.Add(int64(time.Since(t0)))
	return err
}

// TestInstrumentationSettleCoversSessionPath: the settle counter must
// time every settlement, not only window marks. With one window spanning
// the horizon the only mark is the final one, so most intervals settle
// as sessions arrive; the counter must still cover every MatchInto.
func TestInstrumentationSettleCoversSessionPath(t *testing.T) {
	tr := liveTestTrace(t)
	cfg := consumelocal.DefaultSimConfig(1.0)
	policy := &timedPolicy{Policy: cfg.Policy}
	cfg.Policy = policy
	reg := consumelocal.NewMetrics()
	job, err := consumelocal.Replay(context.Background(), consumelocal.TraceSource(tr),
		consumelocal.WithSimConfig(cfg), consumelocal.WithWindow(tr.HorizonSec),
		consumelocal.WithInstrumentation(reg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Result(); err != nil {
		t.Fatal(err)
	}
	exp := scrape(t, reg)
	if got, _ := exp.Value("consumelocal_replay_windows_settled_total"); got != 1 {
		t.Fatalf("windows settled = %g, want 1", got)
	}
	matched := time.Duration(policy.nanos.Load()).Seconds()
	if matched <= 0 {
		t.Fatal("the policy never matched an interval")
	}
	settle, _ := exp.Value("consumelocal_replay_settle_seconds_total")
	if settle < matched {
		t.Fatalf("settle counter %.6fs < %.6fs spent inside MatchInto", settle, matched)
	}
}

// TestIngestInstrumentation drives the backpressure accounting: a
// capacity-1 queue with a blocked producer accumulates stall time, the
// depth and peak accessors track the queue, and the watermark lag
// tracks the gap between pushed sessions and the watermark.
func TestIngestInstrumentation(t *testing.T) {
	meta := consumelocal.TraceMeta{
		Name: "backpressure", HorizonSec: 7200, NumUsers: 10, NumContent: 2, NumISPs: 1,
	}
	src, err := consumelocal.NewIngestSource(meta, 1)
	if err != nil {
		t.Fatal(err)
	}

	sess := func(start int64) consumelocal.Session {
		return consumelocal.Session{StartSec: start, DurationSec: 60, Bitrate: consumelocal.BitrateSD}
	}
	if err := src.Push(sess(100)); err != nil {
		t.Fatal(err)
	}
	if src.Pending() != 1 || src.QueuePeak() != 1 {
		t.Fatalf("pending/peak = %d/%d, want 1/1", src.Pending(), src.QueuePeak())
	}

	// Second push blocks on the full queue until the consumer pops.
	pushed := make(chan error, 1)
	go func() { pushed <- src.Push(sess(200)) }()
	time.Sleep(30 * time.Millisecond)
	if _, err := src.NextEvent(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-pushed; err != nil {
		t.Fatal(err)
	}
	if src.Blocked() <= 0 {
		t.Fatalf("Blocked = %v after a full-queue stall, want > 0", src.Blocked())
	}
	// Drain the second session so the capacity-1 queue has room for the
	// watermark marks below.
	if _, err := src.NextEvent(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Newest session starts at 200 against a watermark of 50: lag is
	// trace time, not wall clock.
	if err := src.Advance(50); err != nil {
		t.Fatal(err)
	}
	if got := src.WatermarkLag(); got != 150 {
		t.Fatalf("watermark lag = %d, want 150", got)
	}
	if err := src.Advance(300); err != nil {
		t.Fatal(err)
	}
	if got := src.WatermarkLag(); got != 0 {
		t.Fatalf("watermark lag after catch-up = %d, want 0", got)
	}
	src.Abort(nil)
	if src.Pending() != 0 || src.QueuePeak() < 1 {
		t.Fatalf("pending/peak after abort = %d/%d, want 0/>=1", src.Pending(), src.QueuePeak())
	}
}

// TestInstrumentationSharedAcrossJobs is the daemon's usage: two jobs
// record into one ReplayMetrics set via WithReplayMetrics, and the
// stage counters aggregate.
func TestInstrumentationSharedAcrossJobs(t *testing.T) {
	tr := replayTestTrace(t)
	reg := consumelocal.NewMetrics()
	shared := obs.NewReplayMetrics(reg)
	for i := 0; i < 2; i++ {
		job, err := consumelocal.Replay(context.Background(), consumelocal.TraceSource(tr),
			consumelocal.WithWindow(12*3600), consumelocal.WithReplayMetrics(shared))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Result(); err != nil {
			t.Fatal(err)
		}
	}
	if got := shared.SourceSessions.Value(); got != float64(2*len(tr.Sessions)) {
		t.Fatalf("shared sessions total = %g, want %d", got, 2*len(tr.Sessions))
	}
}
