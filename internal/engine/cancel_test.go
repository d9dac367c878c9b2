package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"consumelocal/internal/trace"
)

// waitForGoroutines polls until the goroutine count drops back to the
// baseline (plus slack for runtime housekeeping) or the deadline passes.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge finished goroutines off the scheduler
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", n, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamContextCancelReleasesPipeline is the regression test for the
// drain hazard: before cancellation existed, abandoning a Run stalled the
// goroutine emitting snapshots on the snapshot channel, the feed behind
// it and the workers on their input channels forever. Cancelling the
// context must unwind every pipeline goroutine even though nobody is
// draining Snapshots.
func TestStreamContextCancelReleasesPipeline(t *testing.T) {
	tr := testTrace(t)
	cfg := DefaultConfig(1.0)
	cfg.WindowSec = 3600
	cfg.Workers = 4

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	run, err := Stream(ctx, TraceSource(tr), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Receive one snapshot so the pipeline is demonstrably mid-flight,
	// then abandon the run: the collector stalls on the snapshot channel
	// once its buffer fills, and the feed behind it, a few windows into
	// the 120-window trace.
	if _, ok := <-run.Snapshots(); !ok {
		t.Fatal("no snapshots before cancellation")
	}
	cancel()

	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := run.Result(); !errors.Is(err, context.Canceled) {
			t.Errorf("Result after cancel = %v, want context.Canceled", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Result did not return after cancellation")
	}
	waitForGoroutines(t, baseline)
}

// TestStreamContextPreCancelled: a replay started under an already
// cancelled context fails synchronously with the cancellation, starting
// no run and no goroutine.
func TestStreamContextPreCancelled(t *testing.T) {
	tr := testTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	baseline := runtime.NumGoroutine()
	run, err := Stream(ctx, TraceSource(tr), DefaultConfig(1.0))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Stream = %v, want context.Canceled", err)
	}
	if run != nil {
		t.Fatal("cancelled Stream returned a run")
	}
	waitForGoroutines(t, baseline)
}

// TestStreamContextCompletesUncancelled: a context that is never
// cancelled must not disturb a normal run.
func TestStreamContextCompletesUncancelled(t *testing.T) {
	tr := testTrace(t)
	want, err := Stream(context.Background(), TraceSource(tr), DefaultConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := want.Result()
	if err != nil {
		t.Fatal(err)
	}

	run, err := Stream(context.Background(), TraceSource(tr), DefaultConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	got, err := run.Result()
	if err != nil {
		t.Fatal(err)
	}
	assertResultsMatch(t, got, wantRes, 1e-12)
}

// disconnectSource models an HTTP request body closed by a
// disconnecting client: the context is cancelled and the very next read
// fails. The run must report the cancellation, not the secondary read
// error.
type disconnectSource struct {
	meta   trace.Meta
	cancel context.CancelFunc
}

func (d *disconnectSource) Meta() trace.Meta { return d.meta }

func (d *disconnectSource) Next() (trace.Session, error) {
	d.cancel()
	return trace.Session{}, errors.New("read on closed body")
}

// idleLiveSource is a live stream whose producer has gone silent: no
// events ever arrive and the stream is never sealed. Only the ctx wired
// through NextEvent can release a replay blocked on it.
type idleLiveSource struct {
	meta trace.Meta
}

func (s *idleLiveSource) Meta() trace.Meta { return s.meta }

func (s *idleLiveSource) Next() (trace.Session, error) {
	ev, err := s.NextEvent(context.Background())
	return ev.Session, err
}

func (s *idleLiveSource) NextEvent(ctx context.Context) (Event, error) {
	<-ctx.Done()
	return Event{}, ctx.Err()
}

// TestStreamContextCancelUnblocksIdleLiveSource: cancelling a replay
// whose live producer is silent must unwind the whole pipeline — the
// feed is blocked inside NextEvent, where a plain Source could never be
// interrupted.
func TestStreamContextCancelUnblocksIdleLiveSource(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	src := &idleLiveSource{meta: trace.Meta{
		Name:       "idle-live",
		HorizonSec: 7200,
		NumUsers:   10,
		NumContent: 2,
		NumISPs:    1,
	}}
	run, err := Stream(ctx, src, DefaultConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	cancel()

	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := run.Result(); !errors.Is(err, context.Canceled) {
			t.Errorf("Result after cancel = %v, want context.Canceled", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Result did not return: the idle live source was never unblocked")
	}
	waitForGoroutines(t, baseline)
}

func TestStreamContextPrefersCancellationOverSourceError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &disconnectSource{
		meta: trace.Meta{
			Name:       "disconnect",
			HorizonSec: 7200,
			NumUsers:   10,
			NumContent: 2,
			NumISPs:    1,
		},
		cancel: cancel,
	}
	run, err := Stream(ctx, src, DefaultConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Result = %v, want context.Canceled", err)
	}
}
