package engine

import (
	"context"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"consumelocal/internal/sim"
	"consumelocal/internal/trace"
)

// newPipeTrace serialises a trace as CSV through an io.Pipe: the writer
// goroutine produces rows while the consumer reads, so the full CSV is
// never buffered — the engine's out-of-core consumption path.
func newPipeTrace(t testing.TB, tr *trace.Trace) (*io.PipeReader, *io.PipeWriter) {
	t.Helper()
	pr, pw := io.Pipe()
	go func() {
		err := tr.WriteCSV(pw)
		pw.CloseWithError(err)
	}()
	return pr, pw
}

func TestStreamSnapshots(t *testing.T) {
	tr := testTrace(t)
	cfg := DefaultConfig(1.0)
	cfg.WindowSec = 6 * 3600
	cfg.Workers = 2

	run, err := Stream(context.Background(), TraceSource(tr), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var (
		snaps []Snapshot
		prev  sim.Tally
	)
	for snap := range run.Snapshots() {
		snaps = append(snaps, snap)
		if snap.Cumulative.TotalBits < prev.TotalBits {
			t.Fatalf("cumulative tally regressed at window %d", snap.Index)
		}
		prev = snap.Cumulative
	}
	res, err := run.Result()
	if err != nil {
		t.Fatal(err)
	}

	if len(snaps) < 2 {
		t.Fatalf("expected multiple windowed snapshots, got %d", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if !last.Final {
		t.Fatal("last snapshot should be marked final")
	}
	for i, snap := range snaps[:len(snaps)-1] {
		if snap.Final {
			t.Fatalf("snapshot %d marked final early", i)
		}
		if snap.ToSec-snap.FromSec != cfg.WindowSec {
			t.Fatalf("snapshot %d spans [%d,%d), want %d-second window",
				i, snap.FromSec, snap.ToSec, cfg.WindowSec)
		}
		if snap.Index != i {
			t.Fatalf("snapshot %d has index %d", i, snap.Index)
		}
	}
	if last.SessionsSeen != int64(len(tr.Sessions)) {
		t.Fatalf("final snapshot saw %d sessions, want %d", last.SessionsSeen, len(tr.Sessions))
	}
	if last.ActiveMembers != 0 {
		t.Fatalf("final snapshot reports %d active members, want 0", last.ActiveMembers)
	}
	if last.Swarms != len(res.Swarms) {
		t.Fatalf("final snapshot reports %d swarms, result has %d", last.Swarms, len(res.Swarms))
	}
	// Cumulative snapshot converges to the final result total.
	assertTallyClose(t, "final cumulative", last.Cumulative, res.Total, 1e-12)
	// Deltas sum to the cumulative.
	var sum sim.Tally
	for _, snap := range snaps {
		sum.Add(snap.Delta)
	}
	assertTallyClose(t, "delta sum", sum, last.Cumulative, 1e-12)
}

func TestStreamRejectsInvalidConfig(t *testing.T) {
	tr := testTrace(t)
	var cfg Config // no upload capacity at all
	if _, err := Stream(context.Background(), TraceSource(tr), cfg); err == nil {
		t.Fatal("expected config validation error")
	}
}

func TestStreamRejectsInvalidMeta(t *testing.T) {
	tr := &trace.Trace{HorizonSec: 0, NumUsers: 1, NumContent: 1, NumISPs: 1}
	if _, err := Stream(context.Background(), TraceSource(tr), DefaultConfig(1.0)); err == nil {
		t.Fatal("expected meta validation error")
	}
}

func TestStreamPropagatesSessionErrors(t *testing.T) {
	input := "#meta name=x epoch=2013-09-01T00:00:00Z horizon=86400 users=5 content=5 isps=2\n" +
		"user,content,isp,exchange,start_sec,duration_sec,bitrate_kbps\n" +
		"0,0,0,0,100,60,1500\n" +
		"1,0,0,0,50,60,1500\n" // out of order
	sc, err := trace.NewScanner(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	run, err := Stream(context.Background(), sc, DefaultConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Result(); err == nil {
		t.Fatal("expected streamed validation error")
	}
}

func TestStreamEmptyTrace(t *testing.T) {
	tr := &trace.Trace{
		Name: "empty", HorizonSec: 86400,
		NumUsers: 1, NumContent: 1, NumISPs: 1,
	}
	run, err := Stream(context.Background(), TraceSource(tr), DefaultConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Swarms) != 0 || res.Total.TotalBits != 0 {
		t.Fatalf("empty trace produced traffic: %+v", res.Total)
	}
}

// countingSource counts the sessions the engine reads from a Source.
type countingSource struct {
	Source
	reads atomic.Int64
}

func (c *countingSource) Next() (trace.Session, error) {
	c.reads.Add(1)
	return c.Source.Next()
}

// TestStreamBackpressure checks that a stalled consumer stalls the
// pipeline rather than buffering unboundedly: once the consumer stops
// after snapshot 0, the collector fills the snapshot channel and blocks
// holding one more snapshot, and the feed blocks handing it the next
// mark, so it reads no further than the session that triggered that
// mark. Draining then completes the run.
func TestStreamBackpressure(t *testing.T) {
	tr := testTrace(t)
	cfg := DefaultConfig(1.0)
	cfg.WindowSec = 3600
	cfg.Workers = 2

	src := &countingSource{Source: TraceSource(tr)}
	run, err := Stream(context.Background(), src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, ok := <-run.Snapshots()
	if !ok {
		t.Fatal("no snapshots")
	}
	if first.Index != 0 {
		t.Fatalf("first snapshot index = %d", first.Index)
	}
	// Stop consuming and wait for the read count to stop moving.
	reads := src.reads.Load()
	for deadline := time.Now().Add(5 * time.Second); ; {
		time.Sleep(100 * time.Millisecond)
		now := src.reads.Load()
		if now == reads {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("feed still reading (%d sessions) with the consumer stalled", now)
		}
		reads = now
	}
	// Snapshots 1..snapshotBuffer-1 fill the channel, the collector
	// holds snapshot snapshotBuffer and the feed blocks handing over the
	// next mark: it has read the sessions starting in the first
	// snapshotBuffer+2 windows, plus the one that triggered that mark.
	closed := int64(snapshotBuffer+2) * cfg.WindowSec
	bound := int64(1)
	for _, s := range tr.Sessions {
		if s.StartSec < closed {
			bound++
		}
	}
	if reads > bound {
		t.Fatalf("feed read %d sessions with the consumer stalled after window 0, want at most %d", reads, bound)
	}
	res, err := run.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.TotalBits <= 0 {
		t.Fatal("no traffic accounted")
	}
}

func TestStreamSeedingAndQuantizeCombined(t *testing.T) {
	// The two trace-rewriting features interact (seeders start at the
	// quantized end); cross-check them together.
	tr := testTrace(t)
	simCfg := sim.DefaultConfig(1.0)
	simCfg.QuantizeTickSec = 10
	simCfg.SeedRetentionSec = 300

	want, err := sim.Run(tr, simCfg)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Stream(context.Background(), TraceSource(tr), Config{Sim: simCfg, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := run.Result()
	if err != nil {
		t.Fatal(err)
	}
	assertResultsMatch(t, got, want, 1e-12)
}
