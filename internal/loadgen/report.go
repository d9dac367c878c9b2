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
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Target      string `json:"target"`
	Spawned     bool   `json:"spawned"`

	Config struct {
		Clients      int     `json:"clients"`
		DurationSec  float64 `json:"duration_sec"`
		Rate         float64 `json:"rate_ops_per_sec"`
		Burst        int     `json:"burst"`
		Mix          string  `json:"mix"`
		WallFraction float64 `json:"wall_fraction"`
		Scale        float64 `json:"scale"`
		Window       int64   `json:"window_sec"`
		Seed         int64   `json:"seed"`
	} `json:"config"`

	Fleet struct {
		Producers     int `json:"producers"`
		WallProducers int `json:"wall_producers"`
		Followers     int `json:"followers"`
		TraceClients  int `json:"trace_clients"`
	} `json:"fleet"`

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

	Follow struct {
		Streams int64 `json:"streams"`
		Lines   int64 `json:"lines"`
	} `json:"follow"`

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

	Server *ServerSection `json:"server,omitempty"`

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
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// ServerSection brackets the run with /metrics-derived aggregates.
type ServerSection struct {
	Initial map[string]float64 `json:"initial"`
	Mid     map[string]float64 `json:"mid,omitempty"`
	Final   map[string]float64 `json:"final"`
	Delta   map[string]float64 `json:"delta"`
}

// DaemonSection describes a spawned daemon's footprint.
type DaemonSection struct {
	PID          int    `json:"pid"`
	Addr         string `json:"addr"`
	RSSPeakBytes int64  `json:"rss_peak_bytes"`
}

// serverSample is one parsed /metrics scrape reduced to the aggregates
// the report tracks.
type serverSample struct {
	values map[string]float64
}

// trackedSeries are the exact daemon series the report follows 1:1.
var trackedSeries = []string{
	"consumelocald_ingest_sessions_pushed_total",
	"consumelocald_jobs_rejected_total",
	"consumelocald_jobs_running",
	"consumelocald_ingest_blocked_seconds_total",
	"consumelocald_ingest_queue_depth",
	"consumelocal_replay_windows_settled_total",
}

// scrape pulls and lints /metrics, reducing it to the tracked series
// plus label-summed aggregates for the vec families (requests by
// family and by 5xx, submissions and finishes across kinds).
func (r *run) scrape(ctx context.Context) (*serverSample, error) {
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
	s := &serverSample{values: make(map[string]float64)}
	for _, name := range trackedSeries {
		if v, ok := exp.Value(name); ok {
			s.values[name] = v
		}
	}
	for series, v := range exp.Samples {
		switch {
		case strings.HasPrefix(series, "consumelocald_http_requests_total{"):
			s.values["consumelocald_http_requests_total"] += v
			if strings.Contains(series, `code="5`) {
				s.values["consumelocald_http_responses_5xx_total"] += v
			}
		case strings.HasPrefix(series, "consumelocald_jobs_submitted_total{"):
			s.values["consumelocald_jobs_submitted_total"] += v
		case strings.HasPrefix(series, "consumelocald_jobs_finished_total{"):
			s.values["consumelocald_jobs_finished_total"] += v
		}
	}
	return s, nil
}

// summarise digests one histogram; an empty histogram reports zeros
// (JSON has no NaN).
func summarise(h *obs.Histogram) LatencySummary {
	s := LatencySummary{Count: h.Count()}
	if s.Count == 0 {
		return s
	}
	s.MeanMs = h.Sum() / float64(s.Count) * 1e3
	s.P50Ms = h.Quantile(0.50) * 1e3
	s.P95Ms = h.Quantile(0.95) * 1e3
	s.P99Ms = h.Quantile(0.99) * 1e3
	return s
}

// buildReport assembles the run's report from the client-side registry
// and the bracketing scrapes.
func (r *run) buildReport(elapsed time.Duration, initial, mid, final *serverSample, chaos *chaosOutcome) *Report {
	rep := &Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Target:      r.base,
		Spawned:     r.curDaemon() != nil,
	}
	rep.Config.Clients = r.cfg.Clients
	rep.Config.DurationSec = r.cfg.Duration.Seconds()
	rep.Config.Rate = r.cfg.Rate
	rep.Config.Burst = r.cfg.Burst
	rep.Config.Mix = r.cfg.Mix
	rep.Config.WallFraction = r.cfg.WallFraction
	rep.Config.Scale = r.cfg.Scale
	rep.Config.Window = r.cfg.Window
	rep.Config.Seed = r.cfg.Seed

	rep.Fleet.Producers = r.counts.producers
	rep.Fleet.WallProducers = r.wall
	rep.Fleet.Followers = r.counts.followers
	rep.Fleet.TraceClients = r.counts.trace

	rep.ElapsedSec = elapsed.Seconds()

	rep.Ingest.JobsOpened = int64(r.jobsOpened.Value())
	rep.Ingest.JobsFinished = int64(r.jobsFinished.Value())
	rep.Ingest.TraceJobs = int64(r.tracesSubmitted.Value())
	rep.Ingest.SessionsAccepted = int64(r.sessionsAccepted.Value())
	rep.Ingest.ProducersReattached = int64(r.reattached.Value())
	if elapsed > 0 {
		rep.Ingest.SessionsPerSec = r.sessionsAccepted.Value() / elapsed.Seconds()
	}

	rep.Latency.Create = summarise(r.createLat)
	rep.Latency.Batch = summarise(r.batchLat)
	rep.Latency.Snapshot = summarise(r.snapLat)

	rep.Follow.Streams = int64(r.followStreams.Value())
	rep.Follow.Lines = int64(r.snapshotLines.Value())

	rep.Errors.HTTP5xx = int64(r.err5xx.Value())
	rep.Errors.HTTP4xx = int64(r.err4xx.Value())
	rep.Errors.Network = int64(r.errNet.Value())
	rep.Errors.Quota429 = int64(r.quota429.Value())
	rep.Errors.Conflict409 = int64(r.conflict409.Value())
	rep.Errors.BehindScheduleOps = r.pace.behindSchedule()
	rep.Errors.RestartWindow = int64(r.restartErrs.Value())

	if initial != nil && final != nil {
		sec := &ServerSection{
			Initial: initial.values,
			Final:   final.values,
			Delta:   make(map[string]float64, len(final.values)),
		}
		if mid != nil {
			sec.Mid = mid.values
		}
		for k, v := range final.values {
			sec.Delta[k] = v - initial.values[k]
		}
		rep.Server = sec

		rep.Skew.ClientSessions = rep.Ingest.SessionsAccepted
		rep.Skew.ServerSessions = int64(sec.Delta["consumelocald_ingest_sessions_pushed_total"])
		rep.Skew.Diff = rep.Skew.ServerSessions - rep.Skew.ClientSessions
	}

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
		c.LedgerOK = c.RestartError == "" && rep.Server != nil &&
			c.LedgerDiff >= 0 && c.LedgerDiff <= c.LedgerBound
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
