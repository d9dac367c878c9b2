package consumelocal_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"consumelocal"
	"consumelocal/internal/sim"
)

func replayTestTrace(t testing.TB) *consumelocal.Trace {
	t.Helper()
	cfg := consumelocal.DefaultTraceConfig(0.001)
	cfg.Days = 3
	tr, err := consumelocal.GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// assertSwarmsIdentical checks per-swarm statistics for exact equality —
// the bit-for-bit guarantee Replay inherits from the engine.
func assertSwarmsIdentical(t *testing.T, label string, got, want *consumelocal.SimResult) {
	t.Helper()
	if len(got.Swarms) != len(want.Swarms) {
		t.Fatalf("%s: %d swarms, want %d", label, len(got.Swarms), len(want.Swarms))
	}
	for i := range got.Swarms {
		if got.Swarms[i] != want.Swarms[i] {
			t.Fatalf("%s: swarm %d differs:\n got %+v\nwant %+v", label, i, got.Swarms[i], want.Swarms[i])
		}
	}
}

// TestReplayMatchesSimRun: Replay must reproduce the serial reference
// simulator bit for bit, per swarm and in total, at any worker count.
func TestReplayMatchesSimRun(t *testing.T) {
	tr := replayTestTrace(t)
	simCfg := consumelocal.DefaultSimConfig(1.0)
	want, err := sim.Run(tr, simCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		job, err := consumelocal.Replay(context.Background(), consumelocal.TraceSource(tr),
			consumelocal.WithSimConfig(simCfg), consumelocal.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		got, err := job.Result()
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%d workers", workers)
		assertSwarmsIdentical(t, label, got, want)
		if got.Total != want.Total {
			t.Fatalf("%s: total %+v != sim.Run %+v", label, got.Total, want.Total)
		}
	}
}

// TestReplayCSVSourceMatchesTraceSource replays the CSV form of the same
// trace and expects the identical outcome.
func TestReplayCSVSourceMatchesTraceSource(t *testing.T) {
	tr := replayTestTrace(t)
	var buf bytes.Buffer
	if err := consumelocal.WriteTraceCSV(tr, &buf); err != nil {
		t.Fatal(err)
	}
	src, err := consumelocal.CSVSource(&buf)
	if err != nil {
		t.Fatal(err)
	}
	job, err := consumelocal.Replay(context.Background(), src, consumelocal.WithUploadRatio(1.0))
	if err != nil {
		t.Fatal(err)
	}
	got, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(tr, consumelocal.DefaultSimConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	assertSwarmsIdentical(t, "csv", got, want)
	if got.Total != want.Total {
		t.Fatalf("csv: total %+v != sim.Run %+v", got.Total, want.Total)
	}
}

func TestReplayPreCancelledContext(t *testing.T) {
	tr := replayTestTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := consumelocal.Replay(ctx, consumelocal.TraceSource(tr))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Replay under cancelled ctx = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled Replay took %v, want prompt return", elapsed)
	}
}

// TestReplayCancelMidStream cancels a streaming job that nobody drains
// and checks the whole pipeline unwinds without leaking goroutines — the
// regression the old Stream API could not avoid.
func TestReplayCancelMidStream(t *testing.T) {
	tr := replayTestTrace(t)
	baseline := runtime.NumGoroutine()

	job, err := consumelocal.Replay(context.Background(), consumelocal.TraceSource(tr),
		consumelocal.WithWindow(3600), consumelocal.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := <-job.Snapshots(); !ok {
		t.Fatal("no snapshot before cancel")
	}
	if err := job.Err(); err != nil {
		t.Fatalf("running job reports err %v", err)
	}
	job.Cancel()

	res, err := job.Result()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Result after Cancel = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled job produced a result")
	}
	if err := job.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err after Cancel = %v, want context.Canceled", err)
	}
	select {
	case <-job.Done():
	default:
		t.Fatal("Done not closed after Result returned")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancel: %d running, baseline %d", n, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReplayParentContextCancellation: cancelling the caller's context
// behaves exactly like Job.Cancel.
func TestReplayParentContextCancellation(t *testing.T) {
	tr := replayTestTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	job, err := consumelocal.Replay(ctx, consumelocal.TraceSource(tr),
		consumelocal.WithWindow(3600))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := <-job.Snapshots(); !ok {
		t.Fatal("no snapshot before cancel")
	}
	cancel()
	if _, err := job.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Result after parent cancel = %v, want context.Canceled", err)
	}
}

func TestReplayGeneratorSource(t *testing.T) {
	cfg := consumelocal.DefaultTraceConfig(0.001)
	cfg.Days = 3
	src, err := consumelocal.GeneratorSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job, err := consumelocal.Replay(context.Background(), src,
		consumelocal.WithUploadRatio(1.0), consumelocal.WithWindow(6*3600))
	if err != nil {
		t.Fatal(err)
	}
	var snapshots int
	for range job.Snapshots() {
		snapshots++
	}
	res, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	if snapshots < 2 {
		t.Fatalf("expected windowed snapshots from the live generator, got %d", snapshots)
	}
	if res.Total.TotalBits <= 0 || res.Total.Offload() <= 0 {
		t.Fatalf("implausible generator replay: %+v", res.Total)
	}
	if int64(float64(cfg.TargetSessions)*0.9) > sumSessions(res) {
		t.Fatalf("generator replay saw %d sessions, target %d", sumSessions(res), cfg.TargetSessions)
	}
}

func sumSessions(res *consumelocal.SimResult) int64 {
	var n int64
	for _, sw := range res.Swarms {
		n += int64(sw.Sessions)
	}
	return n
}

func TestReplaySinks(t *testing.T) {
	tr := replayTestTrace(t)
	var ndjson, tsv bytes.Buffer
	metrics := consumelocal.NewMetricsSink()

	job, err := consumelocal.Replay(context.Background(), consumelocal.TraceSource(tr),
		consumelocal.WithUploadRatio(1.0),
		consumelocal.WithWindow(6*3600),
		consumelocal.WithSink(consumelocal.NDJSONSink(&ndjson)),
		consumelocal.WithSink(consumelocal.TSVSink(&tsv)),
		consumelocal.WithSink(metrics))
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}

	// NDJSON: every line parses; snapshots plus one summary.
	var lines, summaries int
	sc := bufio.NewScanner(&ndjson)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines++
		var m map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad NDJSON line: %v", err)
		}
		if _, ok := m["summary"]; ok {
			summaries++
		}
	}
	if lines < 3 || summaries != 1 {
		t.Fatalf("NDJSON sink wrote %d lines (%d summaries)", lines, summaries)
	}

	// TSV: header plus one row per snapshot.
	rows := strings.Split(strings.TrimSpace(tsv.String()), "\n")
	if !strings.HasPrefix(rows[0], "window\tfrom_sec") {
		t.Fatalf("TSV header missing: %q", rows[0])
	}
	if len(rows)-1 != lines-1 {
		t.Fatalf("TSV rows = %d, NDJSON snapshots = %d", len(rows)-1, lines-1)
	}

	// Metrics: final gauges report the finished replay.
	g := metrics.Gauges()
	if g["consumelocal_replay_done"] != 1 || g["consumelocal_replay_failed"] != 0 {
		t.Fatalf("metrics done/failed = %v/%v", g["consumelocal_replay_done"], g["consumelocal_replay_failed"])
	}
	if g["consumelocal_replay_total_bits"] != res.Total.TotalBits {
		t.Fatalf("metrics total bits = %v, want %v", g["consumelocal_replay_total_bits"], res.Total.TotalBits)
	}
	var prom bytes.Buffer
	if err := metrics.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "consumelocal_replay_offload ") {
		t.Fatalf("prometheus exposition missing offload gauge:\n%s", prom.String())
	}
}

// TestReplaySinksRunWithoutConsumer: sinks observe the full replay even
// when nobody drains Job.Snapshots — they are pipeline participants,
// not taps on the consumer channel.
func TestReplaySinksRunWithoutConsumer(t *testing.T) {
	tr := replayTestTrace(t)
	var tsv bytes.Buffer
	job, err := consumelocal.Replay(context.Background(), consumelocal.TraceSource(tr),
		consumelocal.WithWindow(6*3600), consumelocal.WithSink(consumelocal.TSVSink(&tsv)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Result(); err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(tsv.String(), "\n"); rows < 3 {
		t.Fatalf("TSV sink saw only %d rows without a channel consumer", rows)
	}
}

// failingSink fails every snapshot, the first one only after a delay
// that lets the engine settle and buffer later windows meanwhile, and
// records the calls it gets.
type failingSink struct {
	calls, finishes int
	finishErr       error
}

func (f *failingSink) Snapshot(consumelocal.StreamSnapshot) error {
	f.calls++
	if f.calls == 1 {
		time.Sleep(50 * time.Millisecond)
	}
	return errors.New("sink exploded")
}

func (f *failingSink) Finish(_ *consumelocal.SimResult, err error) error {
	f.finishes++
	f.finishErr = err
	return nil
}

func TestReplaySinkErrorAbortsJob(t *testing.T) {
	tr := replayTestTrace(t)
	sink := &failingSink{}
	job, err := consumelocal.Replay(context.Background(), consumelocal.TraceSource(tr),
		consumelocal.WithWindow(3600), consumelocal.WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Result()
	if err == nil || !strings.Contains(err.Error(), "sink exploded") {
		t.Fatalf("Result = %v, want sink error", err)
	}
	if res != nil {
		t.Fatal("failed job produced a result")
	}
	// The failed sink gets nothing more, not even the windows settled
	// while it was failing, and still sees the outcome once.
	if sink.calls != 1 {
		t.Fatalf("failed sink got %d Snapshot calls, want 1", sink.calls)
	}
	if sink.finishes != 1 || sink.finishErr == nil || !strings.Contains(sink.finishErr.Error(), "sink exploded") {
		t.Fatalf("Finish ran %d times with %v, want once with the sink error", sink.finishes, sink.finishErr)
	}
}

func TestReplayRejectsInvalidInput(t *testing.T) {
	tr := replayTestTrace(t)
	// Invalid sim configuration.
	bad := consumelocal.DefaultSimConfig(-1)
	if _, err := consumelocal.Replay(context.Background(), consumelocal.TraceSource(tr),
		consumelocal.WithSimConfig(bad)); err == nil {
		t.Fatal("expected config validation error")
	}
	// Invalid metadata.
	empty := &consumelocal.Trace{}
	if _, err := consumelocal.Replay(context.Background(), consumelocal.TraceSource(empty)); err == nil {
		t.Fatal("expected metadata validation error")
	}
}

// TestReplaySourceErrorPropagates: a source failing mid-stream fails the
// job with that error.
func TestReplaySourceErrorPropagates(t *testing.T) {
	input := "#meta name=x epoch=2013-09-01T00:00:00Z horizon=86400 users=5 content=5 isps=2\n" +
		"user,content,isp,exchange,start_sec,duration_sec,bitrate_kbps\n" +
		"0,0,0,0,100,60,1500\n" +
		"1,0,0,0,50,60,1500\n" // out of start order
	src, err := consumelocal.CSVSource(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	job, err := consumelocal.Replay(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Result(); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("Result = %v, want stream validation error", err)
	}
}

// cancelThenFailSink models a response writer broken by the same
// disconnect that cancelled the job: the write error is secondary and
// must not displace the cancellation.
type cancelThenFailSink struct{ cancel context.CancelFunc }

func (s cancelThenFailSink) Snapshot(consumelocal.StreamSnapshot) error {
	s.cancel()
	return errors.New("broken pipe")
}

func (s cancelThenFailSink) Finish(*consumelocal.SimResult, error) error { return nil }

func TestReplaySinkErrorAfterCancelIsCancellation(t *testing.T) {
	tr := replayTestTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	job, err := consumelocal.Replay(ctx, consumelocal.TraceSource(tr),
		consumelocal.WithWindow(3600), consumelocal.WithSink(cancelThenFailSink{cancel: cancel}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Result = %v, want context.Canceled", err)
	}
}
