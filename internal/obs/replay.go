package obs

// ReplayMetrics is the replay pipeline's instrumentation set,
// registered on one Registry by NewReplayMetrics and handed to the
// engine through consumelocal.WithInstrumentation: per-stage wall-clock
// totals (source read, engine settle, sink emit) and per-job throughput
// counters. The engine's feed loop times reads and emits while its
// workers time settlement, all at once. Counters aggregate correctly
// when many jobs share one set (the consumelocald daemon registers
// exactly one). A live ingest stream's backpressure figures come from
// its IngestSource accessors instead.
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
	// SinkEmitSeconds accumulates wall-clock time the feed spends
	// handing each snapshot to the attached sinks and then the Job
	// channel.
	SinkEmitSeconds *Counter
	// WindowsSettled counts snapshots emitted.
	WindowsSettled *Counter
}

// NewReplayMetrics registers the pipeline series on r under the
// consumelocal_replay_ prefix and returns the set.
func NewReplayMetrics(r *Registry) *ReplayMetrics {
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
