package consumelocal

import (
	"context"
	"time"

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
	return func(o *replayOptions) {
		o.stats = m
		o.cfg.Stats = m
	}
}

// timedSource wraps a Source, accumulating read time and session counts
// into the job's instrumentation set.
type timedSource struct {
	src Source
	m   *obs.ReplayMetrics
}

func (t *timedSource) Meta() TraceMeta { return t.src.Meta() }

func (t *timedSource) Next() (Session, error) {
	t0 := time.Now()
	s, err := t.src.Next()
	t.m.SourceReadSeconds.Add(time.Since(t0).Seconds())
	if err == nil {
		t.m.SourceSessions.Inc()
	}
	return s, err
}

// timedLiveSource additionally preserves the LiveSource extension, so
// instrumenting an ingest-fed replay keeps watermark-driven settlement.
type timedLiveSource struct {
	timedSource
	live LiveSource
}

func (t *timedLiveSource) NextEvent(ctx context.Context) (SourceEvent, error) {
	t0 := time.Now()
	ev, err := t.live.NextEvent(ctx)
	t.m.SourceReadSeconds.Add(time.Since(t0).Seconds())
	if err == nil && !ev.Mark {
		t.m.SourceSessions.Inc()
	}
	return ev, err
}

// instrumentSource wraps src with stage timing, preserving the
// LiveSource extension when present.
func instrumentSource(src Source, m *obs.ReplayMetrics) Source {
	if live, ok := src.(LiveSource); ok {
		return &timedLiveSource{timedSource: timedSource{src: src, m: m}, live: live}
	}
	return &timedSource{src: src, m: m}
}
