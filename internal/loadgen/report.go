package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"consumelocal/internal/obs"
)

// Report is the JSON report schema of a load run. Client-side
// numbers come from the harness's own histograms and counters;
// server-side numbers come from /metrics scrapes bracketing the run,
// so the two views can be cross-checked (Skew).
type Report struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	ElapsedSec float64 `json:"elapsed_sec"`

	Ingest struct {
		JobsOpened       int64   `json:"jobs_opened"`
		JobsFinished     int64   `json:"jobs_finished"`
		TraceJobs        int64   `json:"trace_jobs"`
		SessionsAccepted int64   `json:"sessions_accepted"`
		SessionsPerSec   float64 `json:"sessions_per_sec"`
		// ProducersReattached counts producers that continued a
		// crash-surviving (resumed) ingest job from its journalled
		// progress instead of recycling.
		ProducersReattached int64 `json:"producers_reattached"`
	} `json:"ingest"`

	Latency struct {
		Create   LatencySummary `json:"create"`
		Batch    LatencySummary `json:"batch"`
		Snapshot LatencySummary `json:"snapshot"`
	} `json:"latency"`

	Errors struct {
		HTTP5xx     int64 `json:"http_5xx"`
		HTTP4xx     int64 `json:"http_4xx_unexpected"`
		Network     int64 `json:"network"`
		Quota429    int64 `json:"backpressure_429"`
		Conflict409 int64 `json:"ordering_409"`
		// BehindScheduleOps counts offered token-bucket arrivals the
		// fleet never consumed — nonzero means the daemon (or the
		// harness host) could not sustain the configured rate.
		BehindScheduleOps int64 `json:"behind_schedule_ops"`
		// RestartWindow counts transport failures inside the chaos
		// restart window — the injected fault, ledgered apart so
		// Network keeps meaning "unexpected".
		RestartWindow int64 `json:"restart_window_errors"`
	} `json:"errors"`

	// Server holds the start-to-end deltas of the daemon counters the
	// report tracks (trackedCounters, plus label-summed request, 5xx,
	// submission and finish totals).
	Server map[string]float64 `json:"server"`

	Skew struct {
		// ClientSessions is what the fleet believes the daemon
		// acknowledged; ServerSessions is the daemon's own
		// ingest_sessions_pushed_total delta over the run. In spawn
		// mode nothing else talks to the daemon, so any difference is
		// a bug in one of the two ledgers.
		ClientSessions int64 `json:"client_sessions"`
		ServerSessions int64 `json:"server_sessions"`
		Diff           int64 `json:"diff"`
	} `json:"skew"`

	Daemon *DaemonSection `json:"daemon,omitempty"`

	Chaos *ChaosSection `json:"chaos,omitempty"`
}

// ChaosSection reports the mid-run kill/restart cycles: their timings
// (slowest observed when more than one cycle ran), what the restarted
// daemon recovered — summed across cycles — and whether the session
// ledger still reconciles across the crashes.
type ChaosSection struct {
	Kills       int     `json:"kills"`
	KilledAtSec float64 `json:"killed_at_sec"`
	ExitMs      float64 `json:"daemon_exit_ms"`
	RelistenMs  float64 `json:"relisten_ms"`
	RecoveryMs  float64 `json:"recovery_ms"`

	RestoredJobs     int    `json:"restored_jobs"`
	ResumedJobs      int    `json:"resumed_jobs"`
	ResumeFailedJobs int    `json:"resume_failed_jobs"`
	InterruptedJobs  int    `json:"interrupted_jobs"`
	TornTail         bool   `json:"torn_tail"`
	RestartError     string `json:"restart_error,omitempty"`

	// The post-crash ledger cross-check. The daemon journals and
	// fsyncs every batch before acknowledging it, so the server-side
	// session count may only EXCEED the client's — by at most one
	// in-flight (unacknowledged) batch per producer per kill, which is
	// what LedgerBound encodes (reattaching producers reclaim most of
	// that slack by crediting journalled rows). A diff outside
	// [0, bound] means sessions were lost or double-counted across a
	// crash.
	LedgerDiff  int64 `json:"ledger_diff"`
	LedgerBound int64 `json:"ledger_bound"`
	LedgerOK    bool  `json:"ledger_ok"`
}

// LatencySummary is one operation class's latency digest, in
// milliseconds, interpolated from the harness's fixed-bucket
// histograms via obs.Histogram.Quantile.
type LatencySummary struct {
	Count uint64  `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// DaemonSection describes a spawned daemon's footprint.
type DaemonSection struct {
	PID          int    `json:"pid"`
	Addr         string `json:"addr"`
	RSSPeakBytes int64  `json:"rss_peak_bytes"`
}

// trackedCounters are the daemon counters the report follows 1:1.
var trackedCounters = []string{
	"consumelocald_ingest_sessions_pushed_total",
	"consumelocald_jobs_rejected_total",
	"consumelocald_ingest_blocked_seconds_total",
	"consumelocal_replay_windows_settled_total",
}

// scrape pulls and lints /metrics, reducing it to the tracked counters
// plus label-summed totals for the vec families (requests by family and
// by 5xx, submissions and finishes across kinds).
func (r *run) scrape(ctx context.Context) (map[string]float64, error) {
	opCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), opGrace)
	defer cancel()
	req, err := http.NewRequestWithContext(opCtx, http.MethodGet, r.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics returned %s", resp.Status)
	}
	exp, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("exposition does not lint: %w", err)
	}
	values := make(map[string]float64)
	for _, name := range trackedCounters {
		if v, ok := exp.Value(name); ok {
			values[name] = v
		}
	}
	for series, v := range exp.Samples {
		switch {
		case strings.HasPrefix(series, "consumelocald_http_requests_total{"):
			values["consumelocald_http_requests_total"] += v
			if strings.Contains(series, `code="5`) {
				values["consumelocald_http_responses_5xx_total"] += v
			}
		case strings.HasPrefix(series, "consumelocald_jobs_submitted_total{"):
			values["consumelocald_jobs_submitted_total"] += v
		case strings.HasPrefix(series, "consumelocald_jobs_finished_total{"):
			values["consumelocald_jobs_finished_total"] += v
		}
	}
	return values, nil
}

// summarise digests one histogram; an empty histogram reports zeros
// (JSON has no NaN).
func summarise(h *obs.Histogram) LatencySummary {
	s := LatencySummary{Count: h.Count()}
	if s.Count == 0 {
		return s
	}
	s.P50Ms = h.Quantile(0.50) * 1e3
	s.P95Ms = h.Quantile(0.95) * 1e3
	s.P99Ms = h.Quantile(0.99) * 1e3
	return s
}

// buildReport assembles the run's report from the client-side tallies
// and the bracketing scrapes.
func (r *run) buildReport(elapsed time.Duration, initial, final map[string]float64, chaos *chaosOutcome) *Report {
	rep := &Report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		ElapsedSec: elapsed.Seconds(),
	}

	rep.Ingest.JobsOpened = r.jobsOpened.Load()
	rep.Ingest.JobsFinished = r.jobsFinished.Load()
	rep.Ingest.TraceJobs = r.tracesSubmitted.Load()
	rep.Ingest.SessionsAccepted = r.sessionsAccepted.Load()
	rep.Ingest.ProducersReattached = r.reattached.Load()
	if elapsed > 0 {
		rep.Ingest.SessionsPerSec = float64(rep.Ingest.SessionsAccepted) / elapsed.Seconds()
	}

	rep.Latency.Create = summarise(r.createLat)
	rep.Latency.Batch = summarise(r.batchLat)
	rep.Latency.Snapshot = summarise(r.snapLat)

	rep.Errors.HTTP5xx = r.err5xx.Load()
	rep.Errors.HTTP4xx = r.err4xx.Load()
	rep.Errors.Network = r.errNet.Load()
	rep.Errors.Quota429 = r.quota429.Load()
	rep.Errors.Conflict409 = r.conflict409.Load()
	rep.Errors.BehindScheduleOps = r.pace.behindSchedule()
	rep.Errors.RestartWindow = r.restartErrs.Load()

	rep.Server = make(map[string]float64, len(final))
	for k, v := range final {
		rep.Server[k] = v - initial[k]
	}
	rep.Skew.ClientSessions = rep.Ingest.SessionsAccepted
	rep.Skew.ServerSessions = int64(rep.Server["consumelocald_ingest_sessions_pushed_total"])
	rep.Skew.Diff = rep.Skew.ServerSessions - rep.Skew.ClientSessions

	if d := r.curDaemon(); d != nil {
		d.sampleRSS()
		rep.Daemon = &DaemonSection{
			PID:          d.cmd.Process.Pid,
			Addr:         d.addr,
			RSSPeakBytes: d.rssPeak.Load(),
		}
	}

	if chaos != nil {
		c := &ChaosSection{
			Kills:            chaos.kills,
			KilledAtSec:      chaos.killedAt.Seconds(),
			ExitMs:           chaos.exit.Seconds() * 1e3,
			RelistenMs:       chaos.relisten.Seconds() * 1e3,
			RecoveryMs:       chaos.healthy.Seconds() * 1e3,
			RestoredJobs:     chaos.restored,
			ResumedJobs:      chaos.resumed,
			ResumeFailedJobs: chaos.resumeFailed,
			InterruptedJobs:  chaos.interrupted,
			TornTail:         chaos.tornTail,
		}
		if chaos.err != nil {
			c.RestartError = chaos.err.Error()
		}
		// One unacknowledged batch per producer per kill is the most the
		// crashes may leave journalled on the server without a
		// client-side ack.
		maxBatch := 0
		for _, b := range r.batches {
			if b.sessions > maxBatch {
				maxBatch = b.sessions
			}
		}
		kills := chaos.kills
		if kills < 1 {
			kills = 1
		}
		c.LedgerBound = int64(kills) * int64(r.counts.producers) * int64(maxBatch)
		c.LedgerDiff = rep.Skew.Diff
		c.LedgerOK = c.RestartError == "" && c.LedgerDiff >= 0 && c.LedgerDiff <= c.LedgerBound
		rep.Chaos = c
	}
	return rep
}

// write renders the report as indented JSON.
func (rep *Report) write(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("loadgen: encode report: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("loadgen: write report: %w", err)
	}
	return nil
}
