package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"consumelocal/internal/matching"
	"consumelocal/internal/sim"
	"consumelocal/internal/trace"
)

// watchSource hands every session it reads to watch before the engine
// sees it, so a test can tell how far the feed has read.
type watchSource struct {
	Source
	watch func(trace.Session)
}

func (w *watchSource) Next() (trace.Session, error) {
	s, err := w.Source.Next()
	if err == nil {
		w.watch(s)
	}
	return s, err
}

// waitOrTimeout waits for ch to close, for at most 5 s, and reports
// whether it did.
func waitOrTimeout(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	case <-time.After(5 * time.Second):
		return false
	}
}

// failingPolicy is LocalityFirst except that its nth MatchInto call
// waits for release (at most 5 s) and then fails.
type failingPolicy struct {
	matching.LocalityFirst
	n       int64
	calls   atomic.Int64
	release <-chan struct{}
}

var errPolicy = errors.New("matching refused the interval")

func (p *failingPolicy) MatchInto(a *matching.Allocation, peers []matching.Peer, demands, caps []float64, budget float64) error {
	if p.calls.Add(1) == p.n {
		waitOrTimeout(p.release)
		return errPolicy
	}
	return p.LocalityFirst.MatchInto(a, peers, demands, caps, budget)
}

// holdSink runs hold on snapshot 0 and fails with err, if set, from
// there on.
type holdSink struct {
	hold func()
	err  error
}

func (s *holdSink) Snapshot(snap Snapshot) error {
	if snap.Index == 0 {
		s.hold()
	}
	return s.err
}

func (s *holdSink) Finish(*sim.Result, error) error { return nil }

// TestStreamPropagatesFailureBeforeFeedError: the feed reads on while
// the workers settle a mark and the collector emits it, so it can fail
// on its own, here on an out-of-order session in window 1, after
// handing mark 0 over. A worker or sink failure at mark 0 comes first
// in the trace and must stay the run's error, and the pipeline must
// unwind completely.
func TestStreamPropagatesFailureBeforeFeedError(t *testing.T) {
	meta := trace.Meta{Name: "fail-order", HorizonSec: 4 * 3600, NumUsers: 10, NumContent: 2, NumISPs: 1}
	sessions := []trace.Session{
		liveTestSession(1, 100, 600),  // settles at mark 0
		liveTestSession(2, 4000, 600), // closes window 0
		liveTestSession(3, 3900, 600), // out of start order
	}
	errSink := errors.New("sink refused the snapshot")
	for _, tc := range []struct {
		name string
		want error
		// setup wires a failure at mark 0 that waits for release.
		setup func(cfg *Config, release <-chan struct{})
	}{
		{"worker", errPolicy, func(cfg *Config, release <-chan struct{}) {
			cfg.Sim.Policy = &failingPolicy{n: 1, release: release}
		}},
		{"sink", errSink, func(cfg *Config, release <-chan struct{}) {
			cfg.Sinks = []Sink{&holdSink{hold: func() { waitOrTimeout(release) }, err: errSink}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			release := make(chan struct{})
			src := &watchSource{
				Source: TraceSource(&trace.Trace{
					Name: meta.Name, HorizonSec: meta.HorizonSec, NumUsers: meta.NumUsers,
					NumContent: meta.NumContent, NumISPs: meta.NumISPs, Sessions: sessions,
				}),
				watch: func(s trace.Session) {
					if s.StartSec == sessions[2].StartSec {
						close(release)
					}
				},
			}
			cfg := DefaultConfig(1.0)
			cfg.Workers = 2
			tc.setup(&cfg, release)

			run, err := Stream(context.Background(), src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := run.Result(); !errors.Is(err, tc.want) {
				t.Fatalf("Result = %v, want %v", err, tc.want)
			}
			select {
			case <-release:
			default:
				t.Fatal("the feed never read past mark 0, so it never failed on its own")
			}
			waitForGoroutines(t, baseline)
		})
	}
}

// TestStreamSinkOverlapsFeed pins the pipelining: a sink holding
// snapshot 0 must not stop the feed reading on. The sink holds it
// until the source has handed out the session that closes window 1; a
// feed that called the sinks itself would be stuck in that sink, and
// the hold would time out.
func TestStreamSinkOverlapsFeed(t *testing.T) {
	tr := testTrace(t)
	cfg := DefaultConfig(1.0)
	cfg.WindowSec = 3600
	cfg.Workers = 2

	closed1 := make(chan struct{})
	var once sync.Once
	src := &watchSource{Source: TraceSource(tr), watch: func(s trace.Session) {
		if s.StartSec >= 2*cfg.WindowSec {
			once.Do(func() { close(closed1) })
		}
	}}
	overlapped := false
	cfg.Sinks = []Sink{&holdSink{hold: func() { overlapped = waitOrTimeout(closed1) }}}

	run, err := Stream(context.Background(), src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Result(); err != nil {
		t.Fatal(err)
	}
	if !overlapped {
		t.Fatal("the feed read nothing past window 0 while a sink held snapshot 0")
	}
}

// ndjsonSink encodes every snapshot and the final total as JSON lines,
// sleeping a random 0–2 ms before each snapshot when rng is set.
type ndjsonSink struct {
	buf bytes.Buffer
	rng *rand.Rand
}

func (s *ndjsonSink) Snapshot(snap Snapshot) error {
	if s.rng != nil {
		time.Sleep(time.Duration(s.rng.Intn(2001)) * time.Microsecond)
	}
	return json.NewEncoder(&s.buf).Encode(snap)
}

func (s *ndjsonSink) Finish(res *sim.Result, err error) error {
	if err != nil {
		return nil
	}
	return json.NewEncoder(&s.buf).Encode(res.Total)
}

// TestStreamSlowSinkMatchesUndelayed: a sink that lags lets the feed
// read ahead of the snapshot being emitted, which must not change a
// byte of it. Everything a snapshot reports that the workers do not
// settle (sessions seen, window bounds) is taken at its mark.
func TestStreamSlowSinkMatchesUndelayed(t *testing.T) {
	tr := testTrace(t)
	ndjson := func(workers int, rng *rand.Rand) []byte {
		sink := &ndjsonSink{rng: rng}
		cfg := DefaultConfig(1.0)
		cfg.Workers = workers
		cfg.Sinks = []Sink{sink}
		run, err := Stream(context.Background(), TraceSource(tr), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := run.Result(); err != nil {
			t.Fatal(err)
		}
		return sink.buf.Bytes()
	}
	for _, workers := range []int{1, 2, 5} {
		want := ndjson(workers, nil)
		got := ndjson(workers, rand.New(rand.NewSource(int64(workers))))
		if !bytes.Equal(got, want) {
			t.Fatalf("%d workers: NDJSON with a lagging sink differs from the undelayed run", workers)
		}
	}
}
