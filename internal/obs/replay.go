package obs

// ReplayMetrics is the replay pipeline's instrumentation set,
// registered on one Registry by NewReplayMetrics and threaded through
// consumelocal.WithInstrumentation: per-stage wall-clock totals (source
// read, engine settle, sink emit), per-job throughput counters, and the
// live-ingest backpressure set. Counters aggregate correctly when many
// jobs share one set (the consumelocald daemon registers exactly one);
// the ingest gauges describe a single stream and are meaningful when
// one ingest job runs per set (the CLI's -stats path) — a daemon
// exposes aggregate gauges of its own instead.
type ReplayMetrics struct {
	// SourceReadSeconds accumulates wall-clock time spent reading the
	// Source (Next/NextEvent), including time blocked waiting for a live
	// producer.
	SourceReadSeconds *Counter
	// SourceSessions counts sessions read from the Source.
	SourceSessions *Counter
	// SettleSeconds accumulates wall-clock time the engine's workers
	// spend settling activity intervals, both as sessions arrive and at
	// window marks (summed across workers, so it can exceed wall-clock).
	SettleSeconds *Counter
	// SinkEmitSeconds accumulates wall-clock time spent delivering
	// snapshots to attached sinks and the Job channel.
	SinkEmitSeconds *Counter
	// WindowsSettled counts snapshots emitted.
	WindowsSettled *Counter

	Ingest *IngestMetrics
}

// IngestMetrics is the live-ingest backpressure set: where pushes
// actually block, how deep the queue runs, and how far sessions run
// ahead of the watermark. Attach to a stream with
// IngestSource.Instrument.
type IngestMetrics struct {
	// PushBlockSeconds accumulates time producers spent blocked in
	// Push/Advance waiting for queue space — the backpressure stall
	// total.
	PushBlockSeconds *Counter
	// QueueDepth is the stream's current queued-event count.
	QueueDepth *Gauge
	// QueuePeak is the high-water mark of QueueDepth.
	QueuePeak *Gauge
	// WatermarkLagSeconds is the trace-time gap between the newest
	// pushed session and the watermark: how far the producer's sessions
	// run ahead of its progress promises.
	WatermarkLagSeconds *Gauge
}

// NewReplayMetrics registers the pipeline series on r under the
// consumelocal_replay_ prefix and returns the set.
func NewReplayMetrics(r *Registry) *ReplayMetrics {
	m := NewStageMetrics(r)
	m.Ingest = NewIngestMetrics(r)
	return m
}

// NewStageMetrics registers only the per-stage counters — the subset
// that aggregates correctly when many concurrent jobs share one set —
// and leaves Ingest nil. A daemon sharing a set across jobs uses this
// and derives its ingest figures per stream instead.
func NewStageMetrics(r *Registry) *ReplayMetrics {
	return &ReplayMetrics{
		SourceReadSeconds: r.Counter("consumelocal_replay_source_read_seconds_total",
			"Wall-clock seconds spent reading the replay source, including waits on a live producer."),
		SourceSessions: r.Counter("consumelocal_replay_source_sessions_total",
			"Sessions read from the replay source."),
		SettleSeconds: r.Counter("consumelocal_replay_settle_seconds_total",
			"Seconds spent settling activity intervals as sessions arrive and at window marks, summed across engine workers."),
		SinkEmitSeconds: r.Counter("consumelocal_replay_sink_emit_seconds_total",
			"Wall-clock seconds spent delivering snapshots to sinks and the job channel."),
		WindowsSettled: r.Counter("consumelocal_replay_windows_settled_total",
			"Windowed snapshots emitted by the replay pipeline."),
	}
}

// NewIngestMetrics registers the live-ingest series on r under the
// consumelocal_replay_ingest_ prefix and returns the set.
func NewIngestMetrics(r *Registry) *IngestMetrics {
	return &IngestMetrics{
		PushBlockSeconds: r.Counter("consumelocal_replay_ingest_push_block_seconds_total",
			"Seconds producers spent blocked in Push/Advance waiting for ingest queue space (backpressure stalls)."),
		QueueDepth: r.Gauge("consumelocal_replay_ingest_queue_depth",
			"Events currently queued in the ingest stream."),
		QueuePeak: r.Gauge("consumelocal_replay_ingest_queue_peak",
			"High-water mark of the ingest queue depth."),
		WatermarkLagSeconds: r.Gauge("consumelocal_replay_ingest_watermark_lag_seconds",
			"Trace-time gap between the newest pushed session start and the watermark."),
	}
}
