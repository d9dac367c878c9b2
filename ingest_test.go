package consumelocal_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"consumelocal"
	"consumelocal/internal/sim"
)

func liveTestTrace(t testing.TB) *consumelocal.Trace {
	t.Helper()
	tr, err := consumelocal.GenerateLiveTrace(consumelocal.DefaultLiveTraceConfig(0.001))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// feedIngest replays a materialised trace into an ingest source the way
// a live producer would: sessions in start order, the watermark advanced
// to every hour boundary the broadcast clock passes, sealed at the end.
func feedIngest(t testing.TB, ing *consumelocal.IngestSource, tr *consumelocal.Trace) {
	t.Helper()
	watermark := int64(0)
	for _, s := range tr.Sessions {
		for next := watermark + 3600; next <= s.StartSec; next += 3600 {
			if err := ing.Advance(next); err != nil {
				t.Errorf("Advance(%d): %v", next, err)
				return
			}
			watermark = next
		}
		if err := ing.Push(s); err != nil {
			t.Errorf("Push(start=%d): %v", s.StartSec, err)
			return
		}
	}
	if err := ing.Advance(tr.HorizonSec); err != nil {
		t.Errorf("Advance(horizon): %v", err)
	}
	if err := ing.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestIngestReplayMatchesMaterialisedTrace is the live-ingest acceptance
// test: a replay fed session by session through an IngestSource — with
// watermark advancement interleaved, exactly as a live broadcast would
// drive it — must produce per-swarm results bit-for-bit identical to
// the serial reference simulator over the equivalent materialised live
// trace.
func TestIngestReplayMatchesMaterialisedTrace(t *testing.T) {
	tr := liveTestTrace(t)

	want, err := sim.Run(tr, consumelocal.DefaultSimConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}

	ing, err := consumelocal.NewIngestSource(tr.Meta(), 64)
	if err != nil {
		t.Fatal(err)
	}
	go feedIngest(t, ing, tr)

	job, err := consumelocal.Replay(context.Background(), ing,
		consumelocal.WithWindow(3600), consumelocal.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	got, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}

	if len(got.Swarms) != len(want.Swarms) {
		t.Fatalf("swarm counts differ: ingest %d, materialised %d", len(got.Swarms), len(want.Swarms))
	}
	if !reflect.DeepEqual(got.Swarms, want.Swarms) {
		for i := range got.Swarms {
			if !reflect.DeepEqual(got.Swarms[i], want.Swarms[i]) {
				t.Fatalf("swarm %d differs:\n got %+v\nwant %+v", i, got.Swarms[i], want.Swarms[i])
			}
		}
		t.Fatal("per-swarm results differ")
	}
	if got.Total != want.Total {
		t.Fatalf("totals differ:\n got %+v\nwant %+v", got.Total, want.Total)
	}
}

// TestIngestWatermarkSettlesWindowsMidBroadcast: with the stream still
// open, advancing the watermark must settle and deliver the windows it
// passes — the mid-broadcast progress a live dashboard follows.
func TestIngestWatermarkSettlesWindowsMidBroadcast(t *testing.T) {
	tr := liveTestTrace(t)
	ing, err := consumelocal.NewIngestSource(tr.Meta(), 0)
	if err != nil {
		t.Fatal(err)
	}
	job, err := consumelocal.Replay(context.Background(), ing, consumelocal.WithWindow(3600))
	if err != nil {
		t.Fatal(err)
	}
	defer job.Cancel()

	// Push the first broadcast's opening minutes, then advance the clock
	// past two window boundaries without sealing the stream.
	first := tr.Sessions[0].StartSec
	n := 0
	for _, s := range tr.Sessions {
		if s.StartSec >= first+600 {
			break
		}
		if err := ing.Push(s); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n == 0 {
		t.Fatal("live trace has no opening burst")
	}
	boundary := (first/3600 + 2) * 3600
	if err := ing.Advance(boundary); err != nil {
		t.Fatal(err)
	}

	deadline := time.After(10 * time.Second)
	settled := 0
	for settled < 2 {
		select {
		case snap, ok := <-job.Snapshots():
			if !ok {
				t.Fatal("snapshot channel closed mid-broadcast")
			}
			if snap.Final {
				t.Fatal("final snapshot before the stream was sealed")
			}
			if snap.ToSec > boundary {
				t.Fatalf("window [%d,%d) settled beyond the watermark %d", snap.FromSec, snap.ToSec, boundary)
			}
			settled++
		case <-deadline:
			t.Fatalf("only %d windows settled mid-broadcast, want 2", settled)
		}
	}
	if err := job.Err(); err != nil {
		t.Fatalf("job failed mid-broadcast: %v", err)
	}
}

func TestIngestOutOfOrderRejected(t *testing.T) {
	meta := consumelocal.TraceMeta{Name: "ingest", HorizonSec: 7200, NumUsers: 10, NumContent: 2, NumISPs: 1}
	sess := func(start int64) consumelocal.Session {
		return consumelocal.Session{UserID: 1, StartSec: start, DurationSec: 60, Bitrate: consumelocal.BitrateSD}
	}
	ing, err := consumelocal.NewIngestSource(meta, 0)
	if err != nil {
		t.Fatal(err)
	}

	if err := ing.Push(sess(100)); err != nil {
		t.Fatal(err)
	}
	if err := ing.Push(sess(50)); !errors.Is(err, consumelocal.ErrOutOfOrder) {
		t.Fatalf("regressing push = %v, want ErrOutOfOrder", err)
	}
	if err := ing.Advance(200); err != nil {
		t.Fatal(err)
	}
	if err := ing.Push(sess(150)); !errors.Is(err, consumelocal.ErrOutOfOrder) {
		t.Fatalf("behind-watermark push = %v, want ErrOutOfOrder", err)
	}
	if err := ing.Advance(100); !errors.Is(err, consumelocal.ErrOutOfOrder) {
		t.Fatalf("regressing watermark = %v, want ErrOutOfOrder", err)
	}
	// A rejected push leaves the stream usable.
	if err := ing.Push(sess(250)); err != nil {
		t.Fatalf("push after rejection = %v, want nil", err)
	}
	// Metadata violations are rejected with the validation error.
	bad := sess(300)
	bad.UserID = 99
	if err := ing.Push(bad); err == nil || errors.Is(err, consumelocal.ErrOutOfOrder) {
		t.Fatalf("out-of-range user = %v, want a validation error", err)
	}
	// Watermarks already passed may be re-asserted (heartbeats).
	if err := ing.Advance(200); err != nil {
		t.Fatalf("re-asserting the watermark = %v, want nil", err)
	}
}

// TestIngestBackpressure: a full queue blocks Push until the consumer
// drains it; PushContext unblocks on its own context instead.
func TestIngestBackpressure(t *testing.T) {
	meta := consumelocal.TraceMeta{Name: "ingest", HorizonSec: 7200, NumUsers: 10, NumContent: 2, NumISPs: 1}
	sess := func(start int64) consumelocal.Session {
		return consumelocal.Session{UserID: 1, StartSec: start, DurationSec: 60, Bitrate: consumelocal.BitrateSD}
	}
	ing, err := consumelocal.NewIngestSource(meta, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.Push(sess(0)); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := ing.PushContext(ctx, sess(1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked push = %v, want context.DeadlineExceeded", err)
	}

	// Draining one event frees the slot and the same push succeeds.
	if ev, err := ing.NextEvent(context.Background()); err != nil || ev.Mark {
		t.Fatalf("NextEvent = %+v, %v", ev, err)
	}
	if err := ing.Push(sess(1)); err != nil {
		t.Fatal(err)
	}
}

// TestIngestCloseAndAbort: Close seals (drain then EOF, pushes refused),
// Abort tears down (producers and consumer unblock with the error).
func TestIngestCloseAndAbort(t *testing.T) {
	meta := consumelocal.TraceMeta{Name: "ingest", HorizonSec: 7200, NumUsers: 10, NumContent: 2, NumISPs: 1}
	sess := func(start int64) consumelocal.Session {
		return consumelocal.Session{UserID: 1, StartSec: start, DurationSec: 60, Bitrate: consumelocal.BitrateSD}
	}

	ing, err := consumelocal.NewIngestSource(meta, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.Push(sess(0)); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ing.Push(sess(1)); !errors.Is(err, consumelocal.ErrIngestClosed) {
		t.Fatalf("push after close = %v, want ErrIngestClosed", err)
	}
	if err := ing.Advance(3600); !errors.Is(err, consumelocal.ErrIngestClosed) {
		t.Fatalf("advance after close = %v, want ErrIngestClosed", err)
	}
	// Sealed stream still drains, then reports a clean end.
	if _, err := ing.NextEvent(context.Background()); err != nil {
		t.Fatalf("drain after close = %v", err)
	}
	if _, err := ing.Next(); err == nil || err.Error() != "EOF" {
		t.Fatalf("sealed drained stream = %v, want io.EOF", err)
	}

	// Abort: a producer blocked on a full queue unblocks with the error.
	ing2, err := consumelocal.NewIngestSource(meta, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ing2.Push(sess(0)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	pushErr := make(chan error, 1)
	go func() { pushErr <- ing2.Push(sess(1)) }()
	time.Sleep(20 * time.Millisecond)
	ing2.Abort(boom)
	select {
	case err := <-pushErr:
		if !errors.Is(err, boom) || !errors.Is(err, consumelocal.ErrIngestClosed) {
			t.Fatalf("aborted push = %v, want both ErrIngestClosed and the abort cause", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abort did not unblock the producer")
	}
	if _, err := ing2.NextEvent(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("aborted NextEvent = %v, want the abort cause", err)
	}
}

// TestPushBatchRefusalPrefix: a batch refused part-way reports how many
// sessions landed before the refusal and PushContext's error for the
// refused one, and the stream stays usable after an ordering or
// validation refusal.
func TestPushBatchRefusalPrefix(t *testing.T) {
	meta := consumelocal.TraceMeta{Name: "ingest", HorizonSec: 7200, NumUsers: 10, NumContent: 2, NumISPs: 1}
	sess := func(start int64) consumelocal.Session {
		return consumelocal.Session{UserID: 1, StartSec: start, DurationSec: 60, Bitrate: consumelocal.BitrateSD}
	}
	bad := sess(40)
	bad.UserID = 99
	for _, tc := range []struct {
		name    string
		prep    func(*consumelocal.IngestSource) error
		batch   []consumelocal.Session
		want    int
		wantErr string
		usable  bool
	}{
		{
			name:    "before an already-pushed start",
			batch:   []consumelocal.Session{sess(10), sess(20), sess(15), sess(30)},
			want:    2,
			wantErr: "consumelocal: ingest session 2: out of order: starts at 15, before already-pushed start 20",
			usable:  true,
		},
		{
			name:    "behind the watermark",
			prep:    func(ing *consumelocal.IngestSource) error { return errors.Join(ing.Push(sess(10)), ing.Advance(100)) },
			batch:   []consumelocal.Session{sess(50)},
			want:    0,
			wantErr: "consumelocal: ingest session 1: out of order: starts at 50, behind watermark 100",
			usable:  true,
		},
		{
			name:    "out of range",
			batch:   []consumelocal.Session{sess(10), sess(20), bad},
			want:    2,
			wantErr: "trace: session 2: user 99 out of range",
			usable:  true,
		},
		{
			name:    "closed",
			prep:    func(ing *consumelocal.IngestSource) error { return ing.Close() },
			batch:   []consumelocal.Session{sess(10)},
			want:    0,
			wantErr: consumelocal.ErrIngestClosed.Error(),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ing, err := consumelocal.NewIngestSource(meta, 0)
			if err != nil {
				t.Fatal(err)
			}
			if tc.prep != nil {
				if err := tc.prep(ing); err != nil {
					t.Fatal(err)
				}
			}
			before := ing.Pushed()
			n, err := ing.PushBatch(context.Background(), tc.batch)
			if n != tc.want || err == nil || err.Error() != tc.wantErr {
				t.Fatalf("PushBatch = %d, %v; want %d, %q", n, err, tc.want, tc.wantErr)
			}
			if got := ing.Pushed() - before; got != int64(n) {
				t.Fatalf("Pushed grew by %d, want %d", got, n)
			}
			if tc.usable {
				if n, err := ing.PushBatch(context.Background(), []consumelocal.Session{sess(5000)}); n != 1 || err != nil {
					t.Fatalf("push after the refusal = %d, %v; want 1, nil", n, err)
				}
			}
		})
	}
}

// TestPushBatchRefusedWhileBlocked: a batch blocked on a full queue
// returns the prefix that fit once the stream is aborted or its own
// context is cancelled.
func TestPushBatchRefusedWhileBlocked(t *testing.T) {
	meta := consumelocal.TraceMeta{Name: "ingest", HorizonSec: 7200, NumUsers: 10, NumContent: 2, NumISPs: 1}
	batch := make([]consumelocal.Session, 5)
	for i := range batch {
		batch[i] = consumelocal.Session{UserID: 1, StartSec: int64(i), DurationSec: 60, Bitrate: consumelocal.BitrateSD}
	}
	boom := errors.New("boom")
	for _, tc := range []struct {
		name   string
		refuse func(*consumelocal.IngestSource, context.CancelFunc)
		is     []error
	}{
		{"abort", func(ing *consumelocal.IngestSource, _ context.CancelFunc) { ing.Abort(boom) }, []error{consumelocal.ErrIngestClosed, boom}},
		{"cancel", func(_ *consumelocal.IngestSource, cancel context.CancelFunc) { cancel() }, []error{context.Canceled}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ing, err := consumelocal.NewIngestSource(meta, 2)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			type result struct {
				n   int
				err error
			}
			done := make(chan result, 1)
			go func() {
				n, err := ing.PushBatch(ctx, batch)
				done <- result{n, err}
			}()
			// The batch fills the queue and waits under the queue lock's
			// condition, so a full queue means the producer is waiting.
			for ing.Pending() < 2 {
				runtime.Gosched()
			}
			tc.refuse(ing, cancel)
			select {
			case r := <-done:
				if r.n != 2 {
					t.Errorf("PushBatch landed %d sessions, want 2", r.n)
				}
				for _, want := range tc.is {
					if !errors.Is(r.err, want) {
						t.Errorf("PushBatch error = %v, want %v", r.err, want)
					}
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a blocked PushBatch did not return")
			}
		})
	}
}

// TestPushBatchWakesConsumerBeforeBlocking: a batch longer than the
// queue hands the consumer what it has queued before it waits for
// room, or both sides would wait on each other.
func TestPushBatchWakesConsumerBeforeBlocking(t *testing.T) {
	meta := consumelocal.TraceMeta{Name: "ingest", HorizonSec: 7200, NumUsers: 10, NumContent: 2, NumISPs: 1}
	batch := make([]consumelocal.Session, 10)
	for i := range batch {
		batch[i] = consumelocal.Session{UserID: 1, StartSec: int64(i), DurationSec: 60, Bitrate: consumelocal.BitrateSD}
	}
	ing, err := consumelocal.NewIngestSource(meta, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan []consumelocal.Session, 1)
	waiting := make(chan struct{})
	go func() {
		var out []consumelocal.Session
		close(waiting)
		for len(out) < len(batch) {
			ev, err := ing.NextEvent(context.Background())
			if err != nil {
				t.Errorf("NextEvent: %v", err)
				break
			}
			out = append(out, ev.Session)
		}
		got <- out
	}()
	<-waiting
	// Without the wake, a consumer already waiting on the empty queue
	// would never see the first four sessions; the deadline turns that
	// hang into a refusal.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if n, err := ing.PushBatch(ctx, batch); n != len(batch) || err != nil {
		t.Fatalf("PushBatch = %d, %v; want %d, nil", n, err, len(batch))
	}
	if out := <-got; !reflect.DeepEqual(out, batch) {
		t.Fatalf("consumer read %v, want %v", out, batch)
	}
}

// TestIngestWaitWakesOnContext: a producer blocked in PushBatch or
// AdvanceContext on a full queue, and a consumer blocked in NextEvent on
// an empty one, each return their own context's error once it is
// cancelled — the wake-up is armed only when the call waits.
func TestIngestWaitWakesOnContext(t *testing.T) {
	meta := consumelocal.TraceMeta{Name: "ingest", HorizonSec: 7200, NumUsers: 10, NumContent: 2, NumISPs: 1}
	full := func(t *testing.T) *consumelocal.IngestSource {
		ing, err := consumelocal.NewIngestSource(meta, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := ing.Push(consumelocal.Session{UserID: 1, DurationSec: 60, Bitrate: consumelocal.BitrateSD}); err != nil {
			t.Fatal(err)
		}
		return ing
	}
	for _, tc := range []struct {
		name string
		call func(*testing.T, context.Context) error
	}{
		{"PushBatch", func(t *testing.T, ctx context.Context) error {
			_, err := full(t).PushBatch(ctx, []consumelocal.Session{{UserID: 2, StartSec: 1, DurationSec: 60, Bitrate: consumelocal.BitrateSD}})
			return err
		}},
		{"AdvanceContext", func(t *testing.T, ctx context.Context) error {
			return full(t).AdvanceContext(ctx, 60)
		}},
		{"NextEvent", func(t *testing.T, ctx context.Context) error {
			ing, err := consumelocal.NewIngestSource(meta, 1)
			if err != nil {
				t.Fatal(err)
			}
			_, err = ing.NextEvent(ctx)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- tc.call(t, ctx) }()
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s = %v, want context.Canceled", tc.name, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s did not wake on its cancelled context", tc.name)
			}
		})
	}
}

// TestIngestHandOffAllocs pins the warm hand-off at zero allocations: a
// request's batch pushed in one PushBatch and drained by NextEvent, both
// under a cancellable context like the daemon's request and replay
// contexts. Neither call waits, so neither arms a cancellation hook.
func TestIngestHandOffAllocs(t *testing.T) {
	meta := consumelocal.TraceMeta{Name: "ingest", HorizonSec: 7200, NumUsers: 10, NumContent: 2, NumISPs: 1}
	batch := make([]consumelocal.Session, 50)
	for i := range batch {
		batch[i] = consumelocal.Session{UserID: 1, StartSec: 60, DurationSec: 60, Bitrate: consumelocal.BitrateSD}
	}
	ing, err := consumelocal.NewIngestSource(meta, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	handOff := func() {
		if n, err := ing.PushBatch(ctx, batch); n != len(batch) || err != nil {
			t.Fatalf("PushBatch = %d, %v", n, err)
		}
		for range batch {
			if _, err := ing.NextEvent(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm up until the queue's backing array has grown and compacted.
	for range 64 {
		handOff()
	}
	if allocs := testing.AllocsPerRun(100, handOff); allocs != 0 {
		t.Fatalf("a warm hand-off of %d sessions allocated %.1f times, want 0", len(batch), allocs)
	}
}

// TestIngestWaitAllocs pins the consumer's wait at zero allocations once
// it has waited under its context: NextEvent finds the queue empty,
// waits, and is woken by a push, as the replay's feed does at every lull
// of a live producer. Its cancellation wake is armed at the first wait
// and kept, not registered again at each.
func TestIngestWaitAllocs(t *testing.T) {
	meta := consumelocal.TraceMeta{Name: "ingest", HorizonSec: 7200, NumUsers: 10, NumContent: 2, NumISPs: 1}
	// A small queue compacts often, so its backing array stops growing
	// within the warm-up.
	ing, err := consumelocal.NewIngestSource(meta, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	next := make(chan struct{})
	got := make(chan error)
	go func() {
		for range next {
			_, err := ing.NextEvent(ctx)
			got <- err
		}
	}()
	defer close(next)
	start := int64(0)
	wakeByPush := func() {
		next <- struct{}{}
		// Give the consumer time to find the queue empty and wait. Were
		// it slower, it would pop without waiting, which allocates
		// nothing either.
		time.Sleep(200 * time.Microsecond)
		start++
		if err := ing.Push(consumelocal.Session{UserID: 1, StartSec: start, DurationSec: 60, Bitrate: consumelocal.BitrateSD}); err != nil {
			t.Fatal(err)
		}
		if err := <-got; err != nil {
			t.Fatal(err)
		}
	}
	for range 64 {
		wakeByPush()
	}
	if allocs := testing.AllocsPerRun(100, wakeByPush); allocs != 0 {
		t.Fatalf("a wait woken by a push allocated %.1f times, want 0", allocs)
	}
}
