package consumelocal

import (
	"context"
	"io"

	"consumelocal/internal/engine"
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

// Option configures a Replay call. Options apply in order to the
// engine configuration, which starts as the paper's configuration at
// q/β = 1 with hourly windows.
type Option func(*engine.Config)

// WithSimConfig replaces the simulation configuration (policy, swarm
// formation, upload model, quantization, seeding, participation, user
// tracking).
func WithSimConfig(cfg SimConfig) Option {
	return func(c *engine.Config) { c.Sim = cfg }
}

// WithUploadRatio is shorthand for WithSimConfig(DefaultSimConfig(r)):
// the paper's configuration at upload-to-bitrate ratio q/β = r.
func WithUploadRatio(r float64) Option {
	return func(c *engine.Config) { c.Sim = sim.DefaultConfig(r) }
}

// WithWorkers sets the number of shard workers the session stream is
// partitioned across by swarm key. Zero means GOMAXPROCS. Results are
// bit-for-bit identical per swarm at any worker count.
func WithWorkers(n int) Option {
	return func(c *engine.Config) { c.Workers = n }
}

// WithWindow sets the reporting window in seconds (default 3600).
func WithWindow(sec int64) Option {
	return func(c *engine.Config) { c.WindowSec = sec }
}

// WithSink attaches a Sink to the job. Sinks observe every snapshot
// before it reaches Job.Snapshots, and the final outcome. Sinks are part
// of the pipeline, not a lossy tap: when the snapshot channel backs up,
// sink delivery pauses with it, so consume the job through Result (which
// drains internally) or by ranging Snapshots. May be repeated; sinks
// run in the order attached.
func WithSink(s Sink) Option {
	return func(c *engine.Config) { c.Sinks = append(c.Sinks, s) }
}

// Job is a replay in progress, started by Replay: the streaming
// engine's run handle.
//
// Snapshots delivers windowed progress; consumers that fall behind by
// more than the snapshot buffer (4 windows) stall the pipeline by design
// (backpressure). Consumers that only want the final outcome call
// Result, which drains internally so attached Sinks still observe every
// snapshot; a job that is neither drained nor cancelled stalls once the
// buffer fills. Cancel (or cancelling the parent context) releases
// every pipeline goroutine regardless of consumer behaviour. Err is nil
// while the job runs; Done closes once Result and Err are final.
type Job = engine.Run

// Replay starts one replay of src under ctx and returns the running Job.
//
// Replay is the library's single replay entry point: every session
// flows through the windowed streaming engine, and the reporting window,
// worker count and attached sinks are Options. Per-swarm results and the
// total are bit-for-bit identical to the serial reference simulator at
// any worker count. Configuration and metadata are validated
// synchronously; a ctx already cancelled returns ctx.Err() immediately.
func Replay(ctx context.Context, src Source, opts ...Option) (*Job, error) {
	cfg := engine.DefaultConfig(1.0)
	for _, opt := range opts {
		opt(&cfg)
	}
	return engine.Stream(ctx, src, cfg)
}
