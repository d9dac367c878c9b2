package consumelocal

import (
	"consumelocal/internal/engine"
	"consumelocal/internal/obs"
)

// Metrics aliases the observability kit's registry so callers inside
// the module can build one without importing internal/obs directly.
type Metrics = obs.Registry

// NewMetrics returns an empty metrics registry, ready for
// WithInstrumentation and for serving as a /metrics handler.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// WithInstrumentation registers the replay pipeline's instrumentation
// set on reg and records into it: per-stage wall-clock totals (source
// read, engine settle, sink emit), sessions read and windows settled.
// Counters are plain atomics; the overhead is two clock reads per
// session on each of the source and settle stages plus two per window
// mark, and nothing when the option is absent. An IngestSource's queue
// depth, peak, backpressure stall time and watermark lag are always
// available from its Pending, QueuePeak, Blocked and WatermarkLag
// accessors.
//
// The same registry may be shared by many jobs: the stage counters
// aggregate across them (this is how consumelocald exposes daemon-wide
// stage totals). Registering twice on one registry panics (duplicate
// series) — share the ReplayMetrics via WithReplayMetrics instead.
func WithInstrumentation(reg *Metrics) Option {
	return WithReplayMetrics(obs.NewReplayMetrics(reg))
}

// WithReplayMetrics is WithInstrumentation for an already-registered
// instrumentation set — the form a daemon uses to share one set across
// every job it runs.
func WithReplayMetrics(m *obs.ReplayMetrics) Option {
	return func(c *engine.Config) { c.Stats = m }
}
