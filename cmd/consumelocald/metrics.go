package main

import (
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"consumelocal/internal/obs"
)

// daemonMetrics is the daemon-wide instrumentation set served on
// GET /metrics: job lifecycle, HTTP traffic, ingest backpressure, spool
// volume and snapshot fan-out latency, plus the replay pipeline's
// shared per-stage counters. Hot-path updates are plain atomics; the
// derived gauges (running jobs, queue depths, watermark lag) are
// computed at scrape time from the job registry.
type daemonMetrics struct {
	reg   *obs.Registry
	start time.Time

	// replay is the per-stage instrumentation set shared by every job
	// the daemon runs (stage counters aggregate across jobs; the
	// aggregate consumelocald_ingest_* series below cover the streams).
	replay *obs.ReplayMetrics

	jobsSubmitted *obs.CounterVec // kind: trace|generator|ingest|sync
	jobsFinished  *obs.CounterVec // status: done|failed|cancelled
	jobsRejected  *obs.Counter
	jobsQuota     *obs.Gauge

	httpRequests *obs.CounterVec // route, code
	httpLatency  *obs.Histogram
	httpInflight *obs.Gauge

	ingestSessions *obs.Counter
	ingestBatches  *obs.Counter

	spooledBytes *obs.Counter
	snapshotEmit *obs.Histogram

	// Durability series. All stay zero unless the daemon runs with
	// -data-dir; recoverySecs doubles as a "durable mode on" signal.
	journalFsync       *obs.Histogram
	journalRecords     *obs.CounterVec // type: created|batch|watermark|finished|evicted|checkpoint
	journalErrors      *obs.Counter
	journalCompactions *obs.Counter
	journalReclaimed   *obs.Counter
	journalFaults      *obs.CounterVec // kind: write|fsync|mangle
	recoveryJobs       *obs.CounterVec // outcome: restored|resumed|resume_failed|interrupted|carried|dropped
	recoveryTorn       *obs.Counter
	recoverySecs       *obs.Gauge

	reqID atomic.Uint64
}

// newDaemonMetrics registers the daemon's series on a fresh registry.
// The derived gauges close over s, which they read under its own locks
// at scrape time — scrapes take s.mu (and per-job locks) but never the
// reverse, so the lock order stays registry → s.mu → j.mu.
func newDaemonMetrics(s *server) *daemonMetrics {
	r := obs.NewRegistry()
	m := &daemonMetrics{
		reg:    r,
		start:  time.Now(),
		replay: obs.NewReplayMetrics(r),

		jobsSubmitted: r.CounterVec("consumelocald_jobs_submitted_total",
			"Replay jobs admitted, by submission kind (trace upload, generator, live ingest, synchronous replay).",
			"kind"),
		jobsFinished: r.CounterVec("consumelocald_jobs_finished_total",
			"Replay jobs settled, by terminal status.", "status"),
		jobsRejected: r.Counter("consumelocald_jobs_rejected_total",
			"Submissions refused because the concurrent-job quota was exhausted."),
		jobsQuota: r.Gauge("consumelocald_jobs_quota",
			"Configured concurrent-replay quota (-max-jobs)."),

		httpRequests: r.CounterVec("consumelocald_http_requests_total",
			"HTTP requests served, by route pattern and status code.", "route", "code"),
		httpLatency: r.Histogram("consumelocald_http_request_seconds",
			"HTTP request latency. Streaming routes (snapshot followers, sync replays) legitimately run for the whole replay.",
			obs.LatencyBuckets),
		httpInflight: r.Gauge("consumelocald_http_inflight_requests",
			"HTTP requests currently being served."),

		ingestSessions: r.Counter("consumelocald_ingest_sessions_pushed_total",
			"Sessions accepted onto live ingest streams across all jobs."),
		ingestBatches: r.Counter("consumelocald_ingest_batches_total",
			"Session batches posted to live ingest streams (parsed successfully)."),

		spooledBytes: r.Counter("consumelocald_spooled_bytes_total",
			"Trace bytes spooled to temporary files for async job submissions."),
		snapshotEmit: r.Histogram("consumelocald_snapshot_emit_seconds",
			"Latency of publishing one snapshot to a job's retained history and followers.",
			obs.LatencyBuckets),

		journalFsync: r.Histogram("consumelocald_journal_fsync_seconds",
			"Latency of one job-journal append's write+fsync (the durability cost on the ingest ack path).",
			obs.LatencyBuckets),
		journalRecords: r.CounterVec("consumelocald_journal_records_total",
			"Job-journal records appended, by record type.", "type"),
		journalErrors: r.Counter("consumelocald_journal_append_errors_total",
			"Job-journal appends that failed. Batch-record failures refuse the ingest ack (500); lifecycle-record failures degrade durability loudly but keep serving."),
		journalCompactions: r.Counter("consumelocald_journal_compactions_total",
			"Online journal compactions completed (background checkpoint+rewrite on the size threshold)."),
		journalReclaimed: r.Counter("consumelocald_journal_compaction_reclaimed_bytes_total",
			"Journal bytes reclaimed by online compactions."),
		journalFaults: r.CounterVec("consumelocald_journal_injected_faults_total",
			"Faults injected into the journal write path by the testing seam, by kind (write, fsync, mangle, reopen). Always zero in production.",
			"kind"),
		recoveryJobs: r.CounterVec("consumelocald_recovery_jobs_total",
			"Jobs reconciled during startup replay, by outcome (restored, resumed, resume_failed, interrupted, carried, dropped).", "outcome"),
		recoveryTorn: r.Counter("consumelocald_recovery_torn_tail_total",
			"Startup replays that found and truncated a torn journal tail (expected after a crash mid-append)."),
		recoverySecs: r.Gauge("consumelocald_recovery_seconds",
			"Wall time the last startup recovery took (journal replay plus result reloads). Zero when -data-dir is off."),
	}
	m.jobsQuota.Set(float64(s.maxJobs))
	r.Info("consumelocald_build_info",
		"Build information; the value is always 1.",
		[2]string{"go_version", runtime.Version()})
	r.GaugeFunc("consumelocald_uptime_seconds",
		"Seconds since the daemon started.",
		func() float64 { return time.Since(m.start).Seconds() })
	r.GaugeFunc("consumelocald_jobs_running",
		"Replay jobs currently running.",
		func() float64 { return float64(s.running()) })
	r.GaugeFunc("consumelocald_jobs_pending",
		"Quota slots claimed by submissions still starting up (spooling, opening sources).",
		func() float64 { return float64(s.pendingSlots()) })
	r.GaugeFunc("consumelocald_ingest_queue_depth",
		"Queued events across all live ingest streams (sum).",
		s.ingestQueueDepth)
	r.GaugeFunc("consumelocald_ingest_watermark_lag_seconds",
		"Largest trace-time gap between pushed sessions and the watermark across running ingest jobs.",
		s.ingestWatermarkLag)
	r.CounterFunc("consumelocald_ingest_blocked_seconds_total",
		"Seconds producers have spent blocked in backpressure across all ingest streams, ever.",
		s.ingestBlockedSeconds)
	r.GaugeFunc("consumelocald_journal_size_bytes",
		"Current job-journal file size (what the online-compaction threshold watches). Zero when -data-dir is off.",
		func() float64 {
			if s.jl == nil {
				return 0
			}
			return float64(s.jl.Size())
		})
	return m
}

// statusWriter records the response status for the request metrics. It
// forwards Flush (the streaming endpoints type-assert http.Flusher) and
// exposes the wrapped writer through Unwrap, so http.ResponseController
// (read deadlines, full-duplex on /v1/replay) keeps working.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// instrument wraps the daemon mux with request accounting: per-route
// request counts and latency, an in-flight gauge, and one structured
// log line per request carrying a daemon-unique request id. The route
// label is the mux's registered pattern — resolved via mux.Handler, not
// r.Pattern, because the middleware runs outside the mux — so label
// cardinality is bounded by the route table, never by client input.
func (m *daemonMetrics) instrument(mux *http.ServeMux, logger *slog.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		_, route := mux.Handler(r)
		if route == "" {
			route = "unmatched"
		}
		rid := m.reqID.Add(1)
		m.httpInflight.Add(1)
		rec := &statusWriter{ResponseWriter: w}
		mux.ServeHTTP(rec, r)
		m.httpInflight.Add(-1)
		dur := time.Since(start)
		m.httpLatency.Observe(dur.Seconds())
		m.httpRequests.With2(route, strconv.Itoa(rec.status())).Inc()
		logger.Info("request",
			slog.Uint64("req", rid),
			slog.String("method", r.Method),
			slog.String("url", r.URL.Path),
			slog.String("route", route),
			slog.Int("status", rec.status()),
			slog.Duration("dur", dur),
			slog.String("remote", r.RemoteAddr))
	})
}

// handleHealthz is the liveness probe, extended with build and uptime
// information so an operator's first curl answers "what is this and how
// long has it been up" without reaching for /metrics.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	running := s.runningLocked()
	s.mu.Unlock()
	payload := map[string]any{
		"status":         "ok",
		"go_version":     runtime.Version(),
		"started":        s.met.start.UTC(),
		"uptime_seconds": time.Since(s.met.start).Seconds(),
		"jobs_running":   running,
		"max_jobs":       s.maxJobs,
		"draining":       s.draining.Load(),
	}
	if s.jl != nil {
		payload["durable"] = true
		payload["recovery"] = s.recovered
	}
	writeJSON(w, http.StatusOK, payload)
}
