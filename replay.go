package consumelocal

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"consumelocal/internal/engine"
	"consumelocal/internal/obs"
	"consumelocal/internal/sim"
	"consumelocal/internal/trace"
)

// Source yields trace sessions in start order, together with the
// trace-level metadata the replay needs before the first session
// arrives. Build one with TraceSource, CSVSource, GeneratorSource or
// NewIngestSource (live ingest), or implement the interface — or its
// LiveSource extension — directly.
type Source = engine.Source

// TraceSource adapts an in-memory trace into a Source.
func TraceSource(t *Trace) Source { return engine.TraceSource(t) }

// CSVSource opens a streaming Source over a CSV trace: the out-of-core
// entry point. Any reader works — a file, an HTTP body, a pipe.
func CSVSource(r io.Reader) (Source, error) { return trace.NewScanner(r) }

// GeneratorSource streams the synthetic workload described by cfg
// directly into a replay, session by session in start order, without
// materialising the trace: the library's live trace source. The stream
// is deterministic per seed but is a different (equally distributed)
// realisation than GenerateTrace with the same configuration.
func GeneratorSource(cfg TraceConfig) (Source, error) { return trace.GeneratorSource(cfg) }

// replayOptions collects the Option knobs; the zero value plus defaults
// is the paper's configuration at q/β = 1 with hourly windows.
type replayOptions struct {
	cfg   engine.Config
	sinks []Sink
	// stats is the optional instrumentation set WithInstrumentation
	// attaches; the engine receives it through cfg.Stats as well.
	stats *obs.ReplayMetrics
}

// Option configures a Replay call.
type Option func(*replayOptions)

// WithSimConfig replaces the simulation configuration (policy, swarm
// formation, upload model, quantization, seeding, participation, user
// tracking).
func WithSimConfig(cfg SimConfig) Option {
	return func(o *replayOptions) { o.cfg.Sim = cfg }
}

// WithUploadRatio is shorthand for WithSimConfig(DefaultSimConfig(r)):
// the paper's configuration at upload-to-bitrate ratio q/β = r.
func WithUploadRatio(r float64) Option {
	return func(o *replayOptions) { o.cfg.Sim = sim.DefaultConfig(r) }
}

// WithWorkers sets the number of shard workers the session stream is
// partitioned across by swarm key. Zero means GOMAXPROCS. Results are
// bit-for-bit identical per swarm at any worker count.
func WithWorkers(n int) Option {
	return func(o *replayOptions) { o.cfg.Workers = n }
}

// WithWindow sets the reporting window in seconds (default 3600).
func WithWindow(sec int64) Option {
	return func(o *replayOptions) { o.cfg.WindowSec = sec }
}

// WithSnapshotBuffer bounds the Job's snapshot channel (default 4): a
// consumer lagging further than this stalls the pipeline by design, propagating backpressure to the source.
func WithSnapshotBuffer(n int) Option {
	return func(o *replayOptions) { o.cfg.SnapshotBuffer = n }
}

// WithSink attaches a Sink to the job. Sinks observe every snapshot
// before it is forwarded to Job.Snapshots, and the final outcome. Sinks
// are part of the pipeline, not a lossy tap: when the snapshot channel
// backs up, sink delivery pauses with it, so consume the job through
// Result (which drains internally) or by ranging Snapshots. May be
// repeated.
func WithSink(s Sink) Option {
	return func(o *replayOptions) { o.sinks = append(o.sinks, s) }
}

// Job is a replay in progress, started by Replay.
//
// Snapshots delivers windowed progress; consumers that fall behind by
// more than the snapshot buffer stall the pipeline by design
// (backpressure). Consumers that only want the final outcome call
// Result, which drains internally so attached Sinks still observe every
// snapshot; a job that is neither drained nor cancelled stalls once the
// buffer fills. Cancel (or cancelling the parent context) releases
// every pipeline goroutine regardless of consumer behaviour.
type Job struct {
	meta   TraceMeta
	cancel context.CancelFunc

	snapshots chan StreamSnapshot
	done      chan struct{}

	mu     sync.Mutex
	result *SimResult
	err    error
}

// Meta returns the metadata of the trace being replayed.
func (j *Job) Meta() TraceMeta { return j.meta }

// Snapshots returns the windowed progress channel. It is closed after
// the final snapshot — or early, when the job is cancelled or fails.
func (j *Job) Snapshots() <-chan StreamSnapshot { return j.snapshots }

// Done returns a channel closed when the job has fully unwound and
// Result/Err are final.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel aborts the replay: the pipeline unwinds promptly, Snapshots
// closes, and Result reports context.Canceled. Safe to call repeatedly
// and after completion.
func (j *Job) Cancel() { j.cancel() }

// Err returns the job's terminal error once it has finished — nil on
// success, context.Canceled after Cancel — and nil while it still runs.
func (j *Job) Err() error {
	select {
	case <-j.done:
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.err
	default:
		return nil
	}
}

// Result blocks until the replay finishes and returns the complete
// outcome. Remaining snapshots are drained internally, so Result may be
// called with or without a concurrent Snapshots consumer.
func (j *Job) Result() (*SimResult, error) {
	for range j.snapshots {
	}
	<-j.done
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// finish records the terminal outcome, notifies the sinks and releases
// the job. Called exactly once, as the caller's last act before its
// defers close j.snapshots and then j.done — so Sink.Finish runs while
// Snapshots is still open, and must not try to drain it. Cancelling the
// derived context here unregisters the finished job from its parent, so
// a long-lived parent context does not accumulate completed children.
func (j *Job) finish(sinks []Sink, res *SimResult, err error) {
	defer j.cancel()
	// Every sink observes the replay's own outcome; a sink failing in
	// Finish must not change what the remaining sinks see, it only
	// fails an otherwise-successful job afterwards.
	var sinkErr error
	for _, s := range sinks {
		if ferr := s.Finish(res, err); ferr != nil && sinkErr == nil {
			sinkErr = ferr
		}
	}
	if err == nil && sinkErr != nil {
		res, err = nil, sinkErr
	}
	j.mu.Lock()
	j.result, j.err = res, err
	j.mu.Unlock()
}

// Replay starts one replay of src under ctx and returns the running Job.
//
// Replay is the library's single replay entry point: every session
// flows through the windowed streaming engine, and the reporting window,
// worker count and attached sinks are Options. Per-swarm results and the
// total are bit-for-bit identical to the serial reference simulator at
// any worker count. Configuration and metadata are validated
// synchronously; a ctx already cancelled returns ctx.Err() immediately.
func Replay(ctx context.Context, src Source, opts ...Option) (*Job, error) {
	o := &replayOptions{cfg: engine.DefaultConfig(1.0)}
	for _, opt := range opts {
		opt(o)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if o.stats != nil {
		src = instrumentSource(src, o.stats)
	}
	ctx, cancel := context.WithCancel(ctx)
	run, err := engine.StreamContext(ctx, src, o.cfg)
	if err != nil {
		cancel()
		return nil, err
	}
	buffer := o.cfg.SnapshotBuffer
	if buffer <= 0 {
		buffer = 4
	}
	j := &Job{
		meta:      run.Meta(),
		cancel:    cancel,
		snapshots: make(chan StreamSnapshot, buffer),
		done:      make(chan struct{}),
	}
	go j.pump(ctx, run, o.sinks, o.stats)
	return j, nil
}

// pump relays engine snapshots to the sinks and the Job channel,
// then settles the outcome. It always drains the engine run, so the
// pipeline can never stall on the Job consumer alone — only deliberate
// backpressure (forwarding to an undrained channel under a live context)
// blocks, and cancellation breaks exactly that wait.
func (j *Job) pump(ctx context.Context, run *engine.Run, sinks []Sink, stats *obs.ReplayMetrics) {
	defer close(j.done)
	defer close(j.snapshots)

	var sinkErr error
	forward := true
	for snap := range run.Snapshots() {
		var emitStart time.Time
		if stats != nil {
			emitStart = time.Now()
		}
		for _, s := range sinks {
			if err := s.Snapshot(snap); err != nil && sinkErr == nil {
				if ctx.Err() == nil {
					// A failing sink aborts the replay; remember its error
					// since the engine will only report context.Canceled.
					sinkErr = fmt.Errorf("replay: sink: %w", err)
					j.cancel()
				}
				// A sink failing after cancellation (e.g. a response
				// writer broken by the same disconnect that cancelled
				// the job) is secondary: the run reports ctx.Err().
			}
		}
		if forward {
			select {
			case j.snapshots <- snap:
			case <-ctx.Done():
				forward = false
			}
		}
		if stats != nil {
			// Emit time covers sink delivery and the (possibly
			// backpressured) job-channel hand-off: the consumer-side stall
			// an operator is usually hunting.
			stats.SinkEmitSeconds.Add(time.Since(emitStart).Seconds())
			stats.WindowsSettled.Inc()
		}
	}
	res, err := run.Result()
	if sinkErr != nil {
		res, err = nil, sinkErr
	}
	j.finish(sinks, res, err)
}
