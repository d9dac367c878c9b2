package consumelocal

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"consumelocal/internal/engine"
)

// LiveSource is a Source for unsealed, watermarked streams: sessions
// are pushed as the broadcast happens rather than read from a finished
// trace. IngestSource is the library's implementation; the streaming
// engine prefers a LiveSource's ctx-aware NextEvent over Next, so live
// replays settle reporting windows on watermark advances and unwind on
// cancellation even while the producer is silent.
type LiveSource = engine.LiveSource

// SourceEvent is one item of a live stream: a session, or a
// watermark-only progress mark.
type SourceEvent = engine.Event

// Errors reported by IngestSource. Producers distinguish a session
// rejected for ordering (the push is wrong) from a stream that no
// longer accepts input (the job is over).
var (
	// ErrIngestClosed is returned by Push, Advance and Close once the
	// stream is sealed or aborted.
	ErrIngestClosed = errors.New("consumelocal: ingest source closed")
	// ErrOutOfOrder is wrapped by Push when a session would violate the
	// stream's ordering contract (non-decreasing start times, never
	// behind the watermark) and by Advance on a watermark regression.
	ErrOutOfOrder = errors.New("out of order")
)

// defaultIngestCapacity bounds an IngestSource's queue when the caller
// does not: enough to absorb a burst of arrivals, small enough that a
// lagging engine backpressures the producer promptly.
const defaultIngestCapacity = 1024

// IngestSource is a bounded, concurrency-safe session queue implementing
// LiveSource: the live-ingest counterpart of CSVSource. A producer —
// typically an HTTP handler fed by a broadcast system — Pushes sessions
// as they occur and Advances the arrival watermark as the broadcast
// clock moves; the replay engine consumes the queue concurrently,
// settling reporting windows as the watermark passes them. When the
// engine lags, Push blocks once the queue is full (backpressure); when
// the broadcast ends, Close seals the stream and the replay completes
// after draining it.
//
// Ordering contract (trace.Scanner's, extended to watermarks): session
// start times are non-decreasing, and no session may start before the
// current watermark. Violating pushes are rejected with ErrOutOfOrder
// and leave the stream usable; the offending session is simply refused.
//
// Any number of goroutines may Push, Advance and Close concurrently,
// though the ordering contract is easiest to uphold from one producer.
type IngestSource struct {
	meta     TraceMeta
	capacity int

	mu   sync.Mutex
	cond *sync.Cond
	// queue is a FIFO of sessions and watermark marks; head indexes the
	// next event to deliver so pops are O(1), and the consumed prefix is
	// compacted away once it dominates the slice.
	queue []SourceEvent
	head  int
	// watermark and lastStart enforce the ordering contract at the
	// producer edge, before an invalid session can poison the replay.
	watermark int64
	lastStart int64
	pushed    int64
	sealed    bool
	abortErr  error
	// blockedNanos accumulates producer stall time (Push/Advance waiting
	// on a full queue) and peak records the deepest the queue has been —
	// always tracked, so Blocked and QueuePeak cost nothing to read and
	// the clock is touched only when a producer actually blocks.
	blockedNanos int64
	peak         int
	// wakeDone and stopWake are the consumer's cancellation wake: one
	// context.AfterFunc registration, armed when NextEvent first waits
	// under a context and kept across its calls under that context, so a
	// replay's feed registers once, not at every empty queue. It is keyed
	// by the context's Done channel, since a context's dynamic type need
	// not be comparable, and released when NextEvent returns an error or
	// is called under another context.
	wakeDone <-chan struct{}
	stopWake func() bool
}

// NewIngestSource returns an ingest queue for a stream with the given
// metadata, which is validated eagerly — the replay needs it before the
// first session arrives. capacity bounds the queue (sessions and
// watermark marks together); zero or negative means the default (1024).
func NewIngestSource(meta TraceMeta, capacity int) (*IngestSource, error) {
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	if capacity <= 0 {
		capacity = defaultIngestCapacity
	}
	s := &IngestSource{meta: meta, capacity: capacity, lastStart: -1}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// Meta returns the stream's trace metadata.
func (s *IngestSource) Meta() TraceMeta { return s.meta }

// Pushed returns the number of sessions accepted so far.
func (s *IngestSource) Pushed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pushed
}

// Watermark returns the current arrival watermark.
func (s *IngestSource) Watermark() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.watermark
}

// Pending returns the number of queued events not yet consumed by the
// replay — producer-side lag, the backpressure signal.
func (s *IngestSource) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.len()
}

// QueuePeak returns the deepest the queue has been over the stream's
// lifetime.
func (s *IngestSource) QueuePeak() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak
}

// Blocked returns the cumulative time producers have spent stalled in
// Push or Advance waiting for queue space — the backpressure the replay
// has exerted on the broadcast feed. It only ever grows.
func (s *IngestSource) Blocked() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Duration(s.blockedNanos)
}

// WatermarkLag returns how far, in trace seconds, the newest pushed
// session start runs ahead of the arrival watermark — the settlement
// debt a stalled watermark accrues. Zero while the watermark keeps up.
func (s *IngestSource) WatermarkLag() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lastStart > s.watermark {
		return s.lastStart - s.watermark
	}
	return 0
}

// Push appends one session to the stream, blocking while the queue is
// full — backpressure from a replay that cannot keep up. It fails with
// ErrOutOfOrder (wrapped, with detail) when the session violates the
// ordering contract, a validation error when it violates the stream
// metadata, and ErrIngestClosed once the stream is sealed or aborted.
func (s *IngestSource) Push(sess Session) error {
	return s.PushContext(context.Background(), sess)
}

// PushContext is Push bounded by a context: a producer whose client has
// disconnected stops waiting for queue space and returns ctx.Err().
func (s *IngestSource) PushContext(ctx context.Context, sess Session) error {
	_, err := s.PushBatch(ctx, []Session{sess})
	return err
}

// PushBatch appends a run of sessions to the stream in order, as
// len(sessions) PushContext calls would, but takes the queue lock and
// wakes the consumer once per run instead of once per session. It
// blocks while the queue is full, after handing the consumer what the
// run has queued so far. It returns how many sessions landed before the
// first refusal, with the error PushContext would have returned for the
// refused session; a refusal leaves the stream usable, so a producer
// resumes from sessions[n].
func (s *IngestSource) PushBatch(ctx context.Context, sessions []Session) (n int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := wait{s: s, ctx: ctx}
	defer func() {
		s.blockedNanos += int64(w.end())
		if n > 0 {
			s.cond.Broadcast()
		}
	}()
	for n < len(sessions) {
		// Nothing can close the stream or cancel this call unseen while
		// s.mu is held, so its state is checked on entry and after each
		// wait, not per session.
		if err := s.closedLocked(); err != nil {
			return n, err
		}
		if err := ctx.Err(); err != nil {
			return n, err
		}
		// Fill the room there is. Validate under the lock, after any
		// wait: the floor (lastStart, watermark) only ever rises, so a
		// session admitted here is ordered against everything already
		// queued.
		for ; n < len(sessions) && s.len() < s.capacity; n++ {
			sess := sessions[n]
			if sess.StartSec < s.lastStart {
				return n, fmt.Errorf("consumelocal: ingest session %d: %w: starts at %d, before already-pushed start %d",
					s.pushed, ErrOutOfOrder, sess.StartSec, s.lastStart)
			}
			if sess.StartSec < s.watermark {
				return n, fmt.Errorf("consumelocal: ingest session %d: %w: starts at %d, behind watermark %d",
					s.pushed, ErrOutOfOrder, sess.StartSec, s.watermark)
			}
			if err := s.meta.ValidateSession(s.pushed, sess); err != nil {
				return n, err
			}
			s.queue = append(s.queue, SourceEvent{Session: sess})
			s.lastStart = sess.StartSec
			s.pushed++
			s.peak = max(s.peak, s.len())
		}
		if n < len(sessions) {
			// The queue is full. Wake the consumer for what this run has
			// queued first, or a run longer than the queue would wait
			// on a consumer that is itself waiting for it.
			s.cond.Broadcast()
			w.block()
		}
	}
	return n, nil
}

// Advance raises the arrival watermark: a promise that no future session
// will start before watermarkSec, which lets the replay settle every
// reporting window the promise closes even while no sessions arrive. A
// regressing watermark is rejected with ErrOutOfOrder; re-asserting the
// current one is a no-op. Like Push, Advance blocks while the queue is
// full — unless the trailing event is already a mark, in which case the
// two coalesce.
func (s *IngestSource) Advance(watermarkSec int64) error {
	return s.AdvanceContext(context.Background(), watermarkSec)
}

// AdvanceContext is Advance bounded by a context.
func (s *IngestSource) AdvanceContext(ctx context.Context, watermarkSec int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := wait{s: s, ctx: ctx}
	defer func() { s.blockedNanos += int64(w.end()) }()
	for {
		if err := s.closedLocked(); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if watermarkSec < s.watermark {
			return fmt.Errorf("consumelocal: ingest watermark %w: %d regresses behind %d",
				ErrOutOfOrder, watermarkSec, s.watermark)
		}
		if watermarkSec == s.watermark {
			return nil
		}
		if n := len(s.queue); n > s.head && s.queue[n-1].Mark {
			s.queue[n-1].WatermarkSec = watermarkSec
			break
		}
		if s.len() < s.capacity {
			s.queue = append(s.queue, SourceEvent{Mark: true, WatermarkSec: watermarkSec})
			if n := s.len(); n > s.peak {
				s.peak = n
			}
			break
		}
		w.block()
	}
	s.watermark = watermarkSec
	s.cond.Broadcast()
	return nil
}

// Close seals the stream: no further Push or Advance is accepted, and
// once the queued events drain the replay completes normally. Closing a
// sealed stream is a no-op; closing an aborted one reports the abort.
func (s *IngestSource) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.abortErr != nil {
		return s.abortErr
	}
	s.sealed = true
	s.cond.Broadcast()
	return nil
}

// Abort tears the stream down: queued events are discarded, blocked
// producers and the consumer unblock immediately, and every subsequent
// call fails. The replay consuming the source observes err from
// NextEvent (a replay already cancelled reports its own ctx.Err()
// instead). A nil err is recorded as ErrIngestClosed. Abort after Close
// still discards whatever has not been consumed yet.
func (s *IngestSource) Abort(err error) {
	if err == nil {
		err = ErrIngestClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.abortErr != nil {
		return
	}
	s.abortErr = err
	s.queue = nil
	s.head = 0
	s.cond.Broadcast()
}

// Next implements Source by draining NextEvent, skipping watermark
// marks. The streaming engine never calls it — it prefers NextEvent —
// but a plain-Source consumer does; it cannot be unblocked by a
// context, so pair Next-driven consumption with Close/Abort from the
// producer side.
func (s *IngestSource) Next() (Session, error) {
	for {
		ev, err := s.NextEvent(context.Background())
		if err != nil {
			return Session{}, err
		}
		if !ev.Mark {
			return ev.Session, nil
		}
	}
}

// NextEvent implements LiveSource: it returns the next queued session
// or watermark mark, blocking until one arrives, the stream is sealed
// and drained (io.EOF), the stream is aborted (the abort error), or ctx
// is done (ctx.Err()). It serves one consumer at a time, the replay
// reading the stream: the cancellation wake it arms for a context is
// released by the first call under another.
func (s *IngestSource) NextEvent(ctx context.Context) (SourceEvent, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ctx.Done() != s.wakeDone {
		s.disarmLocked()
	}
	ev, err := s.nextLocked(ctx)
	if err != nil {
		s.disarmLocked()
	}
	return ev, err
}

// nextLocked is NextEvent under s.mu. Before its first wait under ctx it
// arms the consumer's wake. The hook is armed under s.mu and broadcasts
// under s.mu, so the consumer cannot check ctx and then miss the wake-up
// between its check and its Wait.
func (s *IngestSource) nextLocked(ctx context.Context) (SourceEvent, error) {
	for {
		if s.abortErr != nil {
			return SourceEvent{}, s.abortErr
		}
		if s.head < len(s.queue) {
			ev := s.queue[s.head]
			s.queue[s.head] = SourceEvent{}
			s.head++
			// Compact once the consumed prefix dominates, keeping the
			// queue's footprint proportional to what is actually pending.
			if s.head >= s.capacity && s.head*2 >= len(s.queue) {
				s.queue = append(s.queue[:0], s.queue[s.head:]...)
				s.head = 0
			}
			s.cond.Broadcast()
			return ev, nil
		}
		if s.sealed {
			return SourceEvent{}, io.EOF
		}
		if err := ctx.Err(); err != nil {
			return SourceEvent{}, err
		}
		if s.stopWake == nil && ctx.Done() != nil {
			s.stopWake = context.AfterFunc(ctx, s.wake)
			s.wakeDone = ctx.Done()
		}
		s.cond.Wait()
	}
}

// disarmLocked releases the consumer's wake, if armed. A hook already
// running only broadcasts, which is harmless. Callers hold s.mu.
func (s *IngestSource) disarmLocked() {
	if s.stopWake != nil {
		s.stopWake()
		s.stopWake, s.wakeDone = nil, nil
	}
}

// len counts pending events. Callers hold s.mu.
func (s *IngestSource) len() int { return len(s.queue) - s.head }

// closedLocked reports why the stream no longer accepts input, nil while
// it does. Callers hold s.mu.
func (s *IngestSource) closedLocked() error {
	if s.abortErr != nil {
		return fmt.Errorf("%w: %w", ErrIngestClosed, s.abortErr)
	}
	if s.sealed {
		return ErrIngestClosed
	}
	return nil
}

// wait is one producer call's stay on the queue's condition variable,
// bounded by the call's context. Registering ctx's cancellation
// (context.AfterFunc) allocates, so it is armed only once the call must
// actually wait: a push that finds room never pays it.
type wait struct {
	s     *IngestSource
	ctx   context.Context
	stop  func() bool // disarms the cancellation hook; nil until armed
	start time.Time   // when the call first waited; zero if it never did
}

// block waits for a broadcast. Callers hold s.mu and have checked
// ctx.Err() under it since they last waited. The hook is armed under
// s.mu, and it broadcasts under s.mu, so the waiter cannot check ctx and
// then miss the wake-up between its check and its Wait. A ctx that can
// never be done arms nothing.
func (w *wait) block() {
	if w.start.IsZero() {
		w.start = time.Now()
		if w.ctx.Done() != nil {
			w.stop = context.AfterFunc(w.ctx, w.s.wake)
		}
	}
	w.s.cond.Wait()
}

// end disarms the hook, if armed, and returns how long the call waited.
// A hook already running only broadcasts, which is harmless.
func (w *wait) end() time.Duration {
	if w.start.IsZero() {
		return 0
	}
	if w.stop != nil {
		w.stop()
	}
	return time.Since(w.start)
}

// wake broadcasts to every waiter: a cancelled call's hook.
func (s *IngestSource) wake() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}
