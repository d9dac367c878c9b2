package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"consumelocal"
	"consumelocal/internal/carbon"
	"consumelocal/internal/energy"
	"consumelocal/internal/engine"
	"consumelocal/internal/joblog"
	"consumelocal/internal/sim"
	"consumelocal/internal/swarm"
	"consumelocal/internal/trace"
)

// maxRetainedJobs bounds the registry: once exceeded, the oldest
// finished jobs — whose results hold full per-user ledgers — are
// evicted, keeping a long-running daemon's memory bounded by the jobs
// actually in flight plus a recent-history window.
const maxRetainedJobs = 32

// defaultMaxJobs is the default concurrent-replay quota.
const defaultMaxJobs = 4

// defaultMaxBodyBytes caps the trace CSV a single replay submission may
// upload (the paper's full-scale trace is ~1.5 GB; 4 GiB leaves
// headroom without letting one request exhaust the disk). Uploads are
// replayed out-of-core — spooled to disk for async jobs, streamed for
// /v1/replay — so the cap bounds disk use and stream length, not
// memory.
const defaultMaxBodyBytes = 4 << 30

// maxJobSnapshots caps the per-job snapshot history: beyond it the
// older half is dropped (followers that lag that far behind skip
// ahead), keeping a job's memory bounded even for window/horizon
// combinations that settle tens of thousands of windows.
const maxJobSnapshots = 4096

// defaultIngestIdle is how long an ingest job may go without a
// successful sessions/finish call before the daemon concludes the
// producer is gone and cancels the job: a broadcast system that crashed
// mid-stream must not pin a quota slot forever.
const defaultIngestIdle = 5 * time.Minute

// defaultIngestCapacity bounds an ingest job's session queue: deep
// enough to absorb a batch per request, shallow enough that a replay
// falling behind backpressures the pushing client promptly.
const defaultIngestCapacity = 4096

// maxIngestBatchBytes caps one sessions push. Unlike trace uploads
// (spooled to disk under -max-body), a batch is parsed into memory
// before pushing, so it must stay RAM-sized; ~8 MiB is a few hundred
// thousand CSV sessions, far more than a live producer batches.
const maxIngestBatchBytes = 8 << 20

// defaultCompactBytes is the default online journal-compaction
// threshold (-journal-compact): once the journal grows this far past
// its last compacted size, it is rewritten in the background.
const defaultCompactBytes = 8 << 20

// server is the daemon's shared state: an async job manager over
// consumelocal.Replay. Every replay — submitted through the async
// /v1/jobs API or the synchronous /v1/replay stream — is a registered
// job with live snapshot history, cancellation and a quota slot.
type server struct {
	mu         sync.Mutex
	jobs       map[int]*job
	nextID     int
	maxJobs    int
	maxBody    int64
	ingestIdle time.Duration
	// pending counts submissions that claimed a quota slot but are not
	// yet published in jobs — the gap while Replay starts. Keeping them
	// out of the registry means a job is only ever visible with its
	// replay handle attached.
	pending int
	// retiredBlockedNanos accumulates the backpressure stall totals of
	// settled ingest jobs, so the daemon's blocked-seconds counter stays
	// monotonic as jobs leave the registry. Guarded by mu.
	retiredBlockedNanos int64

	// met is the daemon's /metrics instrumentation; logger receives the
	// structured request and job-lifecycle logs. newServer installs a
	// discard logger — runDaemon (and anyone else hosting the server)
	// wires the real one.
	met    *daemonMetrics
	logger *slog.Logger

	// jl and store are the durability layer (-data-dir): the
	// fsync-on-commit job journal and the completed-result store. Both
	// nil when the daemon runs ephemeral; openDurability attaches them
	// before the listener binds. recovered is what the startup journal
	// replay did (the /healthz "recovery" payload).
	jl        *joblog.Journal
	store     *joblog.Store
	recovered recoveryInfo

	// compactBytes is the online-compaction threshold (-journal-compact):
	// once the journal grows this far past its last compacted size, a
	// background goroutine rewrites it down to a checkpoint plus live
	// tails. Zero disables online compaction (startup compaction always
	// runs). compacting serialises the background passes; compactFloor is
	// the journal size right after the last one.
	compactBytes int64
	compacting   atomic.Bool
	compactFloor atomic.Int64

	// draining flips once shutdown begins: new work is refused with
	// 503 + Retry-After instead of hanging on a dying listener.
	draining atomic.Bool

	// sourceHook, when set, replaces jobSource for POST /v1/jobs: the
	// test seam that lets the httptest suite drive jobs from gated
	// in-memory sources with deterministic timing.
	sourceHook func(r *http.Request) (consumelocal.Source, func(), error)
}

// job is one replay: its registry entry, the live snapshot history
// while it runs, and the full result once done.
type job struct {
	id      int
	name    string
	kind    string // trace | generator | ingest | sync
	started time.Time
	meta    trace.Meta
	replay  *consumelocal.Job
	srv     *server
	cleanup func()
	// ingest is set for live ingest jobs: the queue the sessions/finish
	// endpoints feed. idleTimer cancels the job when the producer goes
	// silent; every successful ingest call re-arms it.
	ingest    *consumelocal.IngestSource
	idleTimer *time.Timer
	// rawQuery is the creation request's query string, journalled with
	// the created record of an ingest job so a restarted daemon can
	// rebuild the same replay configuration and resume the stream.
	rawQuery string

	mu sync.Mutex
	// status is "running", "done", "failed" or "cancelled".
	status string
	// idleFired records that the ingest idle watchdog cancelled the job,
	// so pump reports why instead of a bare "context canceled".
	idleFired bool
	// lastActive is the time of the last successful producer activity on
	// an ingest job; the watchdog measures idleness against it, so a
	// long batch re-arms it session by session as pushes land.
	lastActive time.Time
	// watchdogDisarmed stops the watchdog once the stream is sealed: no
	// producer activity is expected while a sealed queue drains, however
	// long the replay takes over it.
	watchdogDisarmed bool
	// blockedRetired marks that pump folded this ingest job's stall
	// total into the server's retired accumulator. Guarded by srv.mu.
	blockedRetired bool
	// interrupt, when set (sync /v1/replay jobs), unblocks a body read
	// the replay may be stalled inside, so DELETE can free the quota
	// slot of a client that stopped sending. Only called while status
	// is "running" — the submitting handler is then still blocked in
	// its settle wait, so its connection is safe to touch.
	interrupt func()
	// snaps is the retained snapshot window; snapsStart is the absolute
	// index of snaps[0] (non-zero once maxJobSnapshots forced eviction).
	snaps      []engine.Snapshot
	snapsStart int
	result     *sim.Result
	errMsg     string
	changed    chan struct{}

	// recovered marks a job rebuilt from the journal after a restart:
	// replay and ingest are nil (there is no live pipeline behind it)
	// and the status is terminal. The rec* fields carry the
	// producer-side view an ingest job's queue would otherwise serve.
	recovered    bool
	recIngest    bool
	recPushed    int64
	recWatermark int64
}

// broadcastLocked wakes every follower. Callers hold j.mu.
func (j *job) broadcastLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// jobView is the JSON projection of a job.
type jobView struct {
	ID        int             `json:"id"`
	Name      string          `json:"name"`
	Kind      string          `json:"kind,omitempty"`
	Started   time.Time       `json:"started"`
	Status    string          `json:"status"`
	Error     string          `json:"error,omitempty"`
	Meta      trace.Meta      `json:"meta"`
	Snapshots int             `json:"snapshots"`
	Snapshot  engine.Snapshot `json:"snapshot"`
	// Ingest marks a live ingest job; Pushed and Watermark then report
	// the stream's producer-side progress.
	Ingest    bool  `json:"ingest,omitempty"`
	Pushed    int64 `json:"pushed,omitempty"`
	Watermark int64 `json:"watermark_sec,omitempty"`
}

func (j *job) view() jobView {
	j.mu.Lock()
	v := jobView{
		ID:        j.id,
		Name:      j.name,
		Kind:      j.kind,
		Started:   j.started,
		Status:    j.status,
		Error:     j.errMsg,
		Meta:      j.meta,
		Snapshots: j.snapsStart + len(j.snaps),
	}
	if n := len(j.snaps); n > 0 {
		v.Snapshot = j.snaps[n-1]
	}
	j.mu.Unlock()
	// The ingest queue has its own lock; read it outside j.mu to keep
	// the lock order trivial. A recovered job has no queue — its view
	// is the journalled progress at the moment the daemon last
	// committed a record for it.
	switch {
	case j.ingest != nil:
		v.Ingest = true
		v.Pushed = j.ingest.Pushed()
		v.Watermark = j.ingest.Watermark()
	case j.recIngest:
		v.Ingest = true
		v.Pushed = j.recPushed
		v.Watermark = j.recWatermark
	}
	return v
}

func newServer(maxJobs int) *server {
	if maxJobs <= 0 {
		maxJobs = defaultMaxJobs
	}
	s := &server{
		jobs:       make(map[int]*job),
		nextID:     1,
		maxJobs:    maxJobs,
		maxBody:    defaultMaxBodyBytes,
		ingestIdle: defaultIngestIdle,
		logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	s.met = newDaemonMetrics(s)
	return s
}

// routes returns the daemon's full handler: the route table wrapped in
// the request-instrumentation middleware (request counts, latency,
// structured logs).
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.met.reg.Handler())
	mux.HandleFunc("POST /v1/replay", s.handleReplay)
	mux.HandleFunc("POST /v1/jobs", s.handleCreateJob)
	mux.HandleFunc("POST /v1/jobs/{id}/sessions", s.handleIngestSessions)
	mux.HandleFunc("POST /v1/jobs/{id}/finish", s.handleIngestFinish)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/snapshots", s.handleJobSnapshots)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("GET /v1/jobs/{id}/energy", s.handleJobEnergy)
	mux.HandleFunc("GET /v1/jobs/{id}/carbon", s.handleJobCarbon)
	return s.met.instrument(mux, s.logger)
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

// replaySpec is the parsed query-parameter form of a replay request.
type replaySpec struct {
	cfg  engine.Config
	name string
	// kind labels the submission for the lifecycle metrics and logs:
	// trace | generator | ingest | sync.
	kind string
	// rawQuery is the submission's raw query string, kept only for
	// ingest jobs — journalled so a restart can resume the stream.
	rawQuery string
}

// options converts the spec into Replay options.
func (sp replaySpec) options() []consumelocal.Option {
	return []consumelocal.Option{
		consumelocal.WithSimConfig(sp.cfg.Sim),
		consumelocal.WithWindow(sp.cfg.WindowSec),
		consumelocal.WithWorkers(sp.cfg.Workers),
		consumelocal.WithSnapshotBuffer(sp.cfg.SnapshotBuffer),
	}
}

// parseSpec parses the replay query parameters shared by /v1/replay and
// /v1/jobs.
func parseSpec(r *http.Request) (replaySpec, error) {
	return parseSpecQuery(r.URL.Query())
}

// parseSpecQuery is parseSpec over bare query values — the form journal
// recovery re-parses a resumed ingest job's journalled query through,
// so a resume runs under exactly the validation its creation did.
func parseSpecQuery(q url.Values) (replaySpec, error) {
	getF := func(key string, def float64) (float64, error) {
		v := q.Get(key)
		if v == "" {
			return def, nil
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, fmt.Errorf("query %s: %w", key, err)
		}
		return f, nil
	}
	getI := func(key string, def int64) (int64, error) {
		v := q.Get(key)
		if v == "" {
			return def, nil
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("query %s: %w", key, err)
		}
		return n, nil
	}
	getB := func(key string) (bool, error) {
		v := q.Get(key)
		if v == "" {
			return false, nil
		}
		b, err := strconv.ParseBool(v)
		if err != nil {
			return false, fmt.Errorf("query %s: %w", key, err)
		}
		return b, nil
	}

	sp := replaySpec{name: q.Get("name")}
	ratio, err := getF("ratio", 1.0)
	if err != nil {
		return sp, err
	}
	sp.cfg = engine.DefaultConfig(ratio)
	if sp.cfg.WindowSec, err = getI("window", 3600); err != nil {
		return sp, err
	}
	// Snapshot history is retained per job; a tiny window on a long
	// horizon would manufacture millions of snapshots, so floor it.
	if sp.cfg.WindowSec < 60 {
		return sp, fmt.Errorf("query window: must be at least 60 seconds, got %d", sp.cfg.WindowSec)
	}
	var workers int64
	if workers, err = getI("workers", int64(runtime.GOMAXPROCS(0))); err != nil {
		return sp, err
	}
	sp.cfg.Workers = int(workers)
	if sp.cfg.Sim.ParticipationRate, err = getF("participation", 1.0); err != nil {
		return sp, err
	}
	if sp.cfg.Sim.QuantizeTickSec, err = getI("tick", 0); err != nil {
		return sp, err
	}
	if sp.cfg.Sim.SeedRetentionSec, err = getI("seed_retention", 0); err != nil {
		return sp, err
	}
	cityWide, err := getB("city_wide")
	if err != nil {
		return sp, err
	}
	mixed, err := getB("mixed_bitrates")
	if err != nil {
		return sp, err
	}
	sp.cfg.Sim.Swarm = swarm.Options{RestrictISP: !cityWide, SplitBitrate: !mixed}
	if v := q.Get("track_users"); v != "" {
		track, err := strconv.ParseBool(v)
		if err != nil {
			return sp, fmt.Errorf("query track_users: %w", err)
		}
		sp.cfg.Sim.TrackUsers = track
	}
	return sp, nil
}

// spoolIdleTimeout bounds how long an async job submission's upload may
// go without delivering a byte: the handler holds a claimed quota slot
// while spooling, so a stalled client must not pin it indefinitely. The
// deadline is re-armed per chunk — a steadily sending client is never
// cut off however large (within max-body) or slow its trace.
const spoolIdleTimeout = time.Minute

// jobSource resolves the trace source of an async job submission.
// source=generator streams the synthetic workload live; otherwise the
// request body is a trace CSV, spooled to a temporary file so the replay
// outlives the request while staying out-of-core.
func (s *server) jobSource(w http.ResponseWriter, r *http.Request) (consumelocal.Source, func(), error) {
	if s.sourceHook != nil {
		return s.sourceHook(r)
	}
	q := r.URL.Query()
	switch v := q.Get("source"); v {
	case "generator":
		scale, days, seed := 0.01, 7, int64(1)
		if raw := q.Get("scale"); raw != "" {
			f, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("query scale: %w", err)
			}
			// DefaultGeneratorConfig treats scale<=0 as full paper scale —
			// refuse rather than let a typo launch a 23.5M-session job, and
			// bound the upside so one request cannot allocate unbounded
			// per-user tables.
			if f <= 0 || f > 1 {
				return nil, nil, fmt.Errorf("query scale: must be in (0, 1], got %g", f)
			}
			scale = f
		}
		if raw := q.Get("days"); raw != "" {
			n, err := strconv.Atoi(raw)
			if err != nil {
				return nil, nil, fmt.Errorf("query days: %w", err)
			}
			// The generator allocates days*24 hour buckets up front; bound
			// it so one request cannot OOM the daemon.
			if n < 1 || n > 365 {
				return nil, nil, fmt.Errorf("query days: must be in [1, 365], got %d", n)
			}
			days = n
		}
		if raw := q.Get("seed"); raw != "" {
			n, err := strconv.ParseInt(raw, 10, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("query seed: %w", err)
			}
			seed = n
		}
		cfg := trace.DefaultGeneratorConfig(scale)
		cfg.Days = days
		cfg.Seed = seed
		src, err := consumelocal.GeneratorSource(cfg)
		return src, nil, err
	case "ingest":
		meta, err := ingestMeta(q)
		if err != nil {
			return nil, nil, err
		}
		capacity, err := parseIngestCapacity(q)
		if err != nil {
			return nil, nil, err
		}
		ing, err := consumelocal.NewIngestSource(meta, capacity)
		if err != nil {
			return nil, nil, err
		}
		wall, err := parseWallWatermark(q)
		if err != nil {
			return nil, nil, err
		}
		stopWall := func() {}
		if wall.enabled {
			wallCtx, cancel := context.WithCancel(context.Background())
			stopWall = cancel
			go wallWatermark(wallCtx, ing, meta.HorizonSec, wall.interval, wall.rate)
		}
		// The cleanup runs once the job settles: tear the queue down so
		// producers blocked in a push unblock and later pushes are
		// refused with a closed-stream conflict. Aborting also unwinds
		// the wall-clock watermark goroutine; cancelling its context
		// first just spares it a doomed Advance.
		return ing, func() {
			stopWall()
			ing.Abort(errIngestJobOver)
		}, nil
	case "", "body":
		f, err := os.CreateTemp("", "consumelocald-job-*.csv")
		if err != nil {
			return nil, nil, fmt.Errorf("spool trace: %w", err)
		}
		cleanup := func() {
			f.Close()
			os.Remove(f.Name())
		}
		// Cap the spool so one oversized submission cannot exhaust the
		// disk (MaxBytesReader fails the read with *MaxBytesError), and
		// keep a stalled upload from pinning its claimed quota slot with
		// an idle deadline, re-armed after every chunk (the server sets
		// no global ReadTimeout).
		rc := http.NewResponseController(w)
		body := http.MaxBytesReader(nil, r.Body, s.maxBody)
		buf := make([]byte, 256<<10)
		for {
			_ = rc.SetReadDeadline(time.Now().Add(spoolIdleTimeout))
			n, rerr := body.Read(buf)
			if n > 0 {
				if _, werr := f.Write(buf[:n]); werr != nil {
					cleanup()
					return nil, nil, fmt.Errorf("spool trace: %w", werr)
				}
				s.met.spooledBytes.Add(float64(n))
			}
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				cleanup()
				return nil, nil, fmt.Errorf("spool trace: %w", rerr)
			}
		}
		_ = rc.SetReadDeadline(time.Time{})
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			cleanup()
			return nil, nil, fmt.Errorf("spool trace: %w", err)
		}
		src, err := consumelocal.CSVSource(bufio.NewReader(f))
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		return src, cleanup, nil
	default:
		return nil, nil, fmt.Errorf("query source: unknown source %q", v)
	}
}

// parseIngestCapacity parses ?capacity=, the ingest queue bound: one
// job cannot buffer an unbounded burst in memory — backpressure, not
// buffering, absorbs a slow replay.
func parseIngestCapacity(q url.Values) (int, error) {
	capacity := defaultIngestCapacity
	if raw := q.Get("capacity"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil {
			return 0, fmt.Errorf("query capacity: %w", err)
		}
		if n < 1 || n > 1<<20 {
			return 0, fmt.Errorf("query capacity: must be in [1, %d], got %d", 1<<20, n)
		}
		capacity = n
	}
	return capacity, nil
}

// Upper bounds on ingest stream metadata. Every streaming worker
// allocates a Days()×NumISPs day grid up front, so an unauthenticated
// request must not be able to declare a geological horizon or a
// thousand ISPs and OOM (or panic) the daemon — the generator path
// bounds days to [1, 365] for the same reason. A year-long broadcast
// over every ISP of a large market fits comfortably.
const (
	maxIngestHorizonSec = 366 * 24 * 3600
	maxIngestISPs       = 256
	maxIngestPopulation = 1 << 30
)

// ingestMeta assembles the stream metadata of an ingest job from query
// parameters. The replay needs the horizon and population sizes before
// the first session arrives, so all four are required up front — they
// are what Push validates each live session against.
func ingestMeta(q url.Values) (trace.Meta, error) {
	meta := trace.Meta{Name: q.Get("name")}
	if meta.Name == "" {
		meta.Name = "ingest"
	}
	for _, p := range []struct {
		key string
		max int
		dst *int
	}{
		{"users", maxIngestPopulation, &meta.NumUsers},
		{"content", maxIngestPopulation, &meta.NumContent},
		{"isps", maxIngestISPs, &meta.NumISPs},
	} {
		raw := q.Get(p.key)
		if raw == "" {
			return meta, fmt.Errorf("source=ingest needs query %s (stream metadata is required up front)", p.key)
		}
		n, err := strconv.Atoi(raw)
		if err != nil {
			return meta, fmt.Errorf("query %s: %w", p.key, err)
		}
		if n > p.max {
			return meta, fmt.Errorf("query %s: must be at most %d, got %d", p.key, p.max, n)
		}
		*p.dst = n
	}
	raw := q.Get("horizon")
	if raw == "" {
		return meta, fmt.Errorf("source=ingest needs query horizon (stream metadata is required up front)")
	}
	horizon, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return meta, fmt.Errorf("query horizon: %w", err)
	}
	if horizon > maxIngestHorizonSec {
		return meta, fmt.Errorf("query horizon: must be at most %d seconds (366 days), got %d", maxIngestHorizonSec, horizon)
	}
	meta.HorizonSec = horizon
	if raw := q.Get("epoch"); raw != "" {
		epoch, err := time.Parse(time.RFC3339, raw)
		if err != nil {
			return meta, fmt.Errorf("query epoch: %w", err)
		}
		meta.Epoch = epoch
	}
	return meta, meta.Validate()
}

// Bounds on the wall-clock watermark parameters. The interval floor
// keeps an unauthenticated request from scheduling a busy-loop ticker;
// the rate ceiling keeps elapsed×rate inside int64 seconds for any
// plausible daemon uptime (the horizon cap clamps the watermark anyway).
const (
	minWallInterval = 10 * time.Millisecond
	maxWallInterval = time.Hour
	maxWallRate     = 1e9
)

// wallConfig is the parsed wall-clock watermark fallback of an ingest
// job: derive Advance from the daemon clock so a producer that sends
// sessions but no (or late) watermarks still gets its reporting windows
// settled — the "silent producer" gap in the durable-service story.
type wallConfig struct {
	enabled  bool
	interval time.Duration
	rate     float64 // trace-seconds advanced per wall-clock second
}

// parseWallWatermark parses ?watermark=wall with its wall_interval and
// wall_rate companions. The default rate of 1 matches a producer
// pushing in real time against the stream epoch; accelerated replays
// (the loadtest's evening-in-seconds schedules) raise it.
func parseWallWatermark(q url.Values) (wallConfig, error) {
	cfg := wallConfig{interval: time.Second, rate: 1}
	switch v := q.Get("watermark"); v {
	case "":
		return cfg, nil
	case "wall":
		cfg.enabled = true
	default:
		return cfg, fmt.Errorf("query watermark: unknown mode %q (only \"wall\" is supported on job creation)", v)
	}
	if raw := q.Get("wall_interval"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil {
			return cfg, fmt.Errorf("query wall_interval: %w", err)
		}
		if d < minWallInterval || d > maxWallInterval {
			return cfg, fmt.Errorf("query wall_interval: must be in [%s, %s], got %s", minWallInterval, maxWallInterval, d)
		}
		cfg.interval = d
	}
	if raw := q.Get("wall_rate"); raw != "" {
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return cfg, fmt.Errorf("query wall_rate: %w", err)
		}
		if f <= 0 || f > maxWallRate {
			return cfg, fmt.Errorf("query wall_rate: must be in (0, %g], got %g", float64(maxWallRate), f)
		}
		cfg.rate = f
	}
	return cfg, nil
}

// wallWatermark advances an ingest stream's watermark from the daemon
// clock: every interval it promises the replay that trace time has
// reached elapsed×rate (clamped to the horizon), settling reporting
// windows even while the producer is silent. Producer-sent watermarks
// compose — whichever clock is ahead wins, and a producer overtaking
// the ticker between its check and its Advance is tolerated, not an
// error. Wall advances are not producer activity: the idle watchdog
// still reaps a stream whose producer has disappeared. The goroutine
// exits when the stream is sealed, aborted, the horizon is reached, or
// ctx is cancelled.
func wallWatermark(ctx context.Context, ing *consumelocal.IngestSource, horizonSec int64, interval time.Duration, rate float64) {
	start := time.Now()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		target := int64(time.Since(start).Seconds() * rate)
		if target > horizonSec {
			target = horizonSec
		}
		if target <= ing.Watermark() {
			continue
		}
		switch err := ing.AdvanceContext(ctx, target); {
		case err == nil:
		case errors.Is(err, consumelocal.ErrOutOfOrder):
			// A producer watermark outran the daemon clock; theirs wins.
		default:
			// Sealed, aborted or cancelled — the stream no longer needs
			// a clock.
			return
		}
		if target >= horizonSec {
			return
		}
	}
}

// runningLocked counts in-flight replays. Callers hold s.mu.
func (s *server) runningLocked() int {
	running := 0
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.status == "running" {
			running++
		}
		j.mu.Unlock()
	}
	return running
}

// running counts in-flight replays (the jobs_running gauge).
func (s *server) running() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runningLocked()
}

// pendingSlots counts claimed-but-unpublished quota slots (the
// jobs_pending gauge).
func (s *server) pendingSlots() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

// ingestQueueDepth sums the pending events of every retained ingest
// stream — settled streams are torn down, so they contribute zero.
func (s *server) ingestQueueDepth() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	depth := 0
	for _, j := range s.jobs {
		if j.ingest != nil {
			depth += j.ingest.Pending()
		}
	}
	return float64(depth)
}

// ingestWatermarkLag reports the worst watermark lag across running
// ingest jobs. Settled jobs are excluded: their lag is frozen at
// whatever the stream last saw and no longer describes live debt.
func (s *server) ingestWatermarkLag() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var worst int64
	for _, j := range s.jobs {
		if j.ingest == nil {
			continue
		}
		j.mu.Lock()
		running := j.status == "running"
		j.mu.Unlock()
		if !running {
			continue
		}
		if lag := j.ingest.WatermarkLag(); lag > worst {
			worst = lag
		}
	}
	return float64(worst)
}

// ingestBlockedSeconds is the monotonic backpressure-stall total: the
// retired accumulator plus the live totals of not-yet-retired streams.
func (s *server) ingestBlockedSeconds() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	nanos := s.retiredBlockedNanos
	for _, j := range s.jobs {
		if j.ingest != nil && !j.blockedRetired {
			nanos += int64(j.ingest.Blocked())
		}
	}
	return time.Duration(nanos).Seconds()
}

// retireIngest folds a settled ingest job's stall total into the
// retired accumulator, exactly once, so eviction from the registry
// cannot make the blocked-seconds counter regress.
func (s *server) retireIngest(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.ingest == nil || j.blockedRetired {
		return
	}
	j.blockedRetired = true
	s.retiredBlockedNanos += int64(j.ingest.Blocked())
}

// quotaExceededLocked returns the 429 error when the quota is
// exhausted, nil otherwise. Callers hold s.mu.
func (s *server) quotaExceededLocked() error {
	if used := s.runningLocked() + s.pending; used >= s.maxJobs {
		return fmt.Errorf("job quota exhausted: %d replays already running (max %d)", used, s.maxJobs)
	}
	return nil
}

// claimSlot reserves a quota slot before the handler does any heavy
// lifting (spooling a multi-gigabyte body, opening a source): the
// reservation is counted in pending until startJob converts it into a
// registered job or releaseSlot gives it back, so concurrent
// submissions cannot each spool a full body only to be refused.
func (s *server) claimSlot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.quotaExceededLocked(); err != nil {
		s.met.jobsRejected.Inc()
		return err
	}
	s.pending++
	return nil
}

// releaseSlot returns a claimed-but-unused quota slot.
func (s *server) releaseSlot() {
	s.mu.Lock()
	s.pending--
	s.mu.Unlock()
}

// startJob starts the replay under ctx and publishes the job, consuming
// the quota slot the caller claimed with claimSlot. The job is only
// registered with its replay handle attached (DELETE and followers can
// never observe a half-built one). It returns an HTTP status alongside
// the error so handlers pass refusals through uniformly.
func (s *server) startJob(ctx context.Context, sp replaySpec, src consumelocal.Source, cleanup func(), extra ...consumelocal.Option) (*job, int, error) {
	// Every job records into the daemon's shared per-stage set, so
	// /metrics exposes daemon-wide source/settle/emit totals.
	opts := append(sp.options(), consumelocal.WithReplayMetrics(s.met.replay))
	rep, err := consumelocal.Replay(ctx, src, append(opts, extra...)...)
	if err != nil {
		s.releaseSlot()
		if cleanup != nil {
			cleanup()
		}
		return nil, http.StatusBadRequest, err
	}

	kind := sp.kind
	if kind == "" {
		kind = "trace"
	}
	j := &job{
		name:    sp.name,
		kind:    kind,
		srv:     s,
		started: time.Now().UTC(),
		// rep.Meta was captured synchronously by Replay before the engine
		// goroutines began consuming src; reading src.Meta() here instead
		// would race any Source whose metadata is not an immutable field.
		meta:     rep.Meta(),
		replay:   rep,
		cleanup:  cleanup,
		status:   "running",
		changed:  make(chan struct{}),
		rawQuery: sp.rawQuery,
	}
	if j.name == "" {
		j.name = j.meta.Name
	}
	// An ingest-sourced job keeps its queue handle: the sessions/finish
	// endpoints feed it, and the idle watchdog cancels the job when the
	// producer goes silent (a crashed broadcast system must not pin a
	// quota slot forever). Successful ingest calls re-arm the watchdog.
	j.ingest, _ = src.(*consumelocal.IngestSource)
	s.armWatchdog(j)
	s.mu.Lock()
	s.pending--
	j.id = s.nextID
	s.nextID++
	s.jobs[j.id] = j
	evicted := s.evictLocked()
	s.mu.Unlock()
	s.dropStored(evicted)
	// The admission record lands — fsynced — before the 202/200 goes
	// out, so a job the client was told exists survives a crash (as
	// "interrupted" if it never finishes).
	s.journalAppend(s.createdRecord(j))

	s.met.jobsSubmitted.With1(kind).Inc()
	s.logger.Info("job started",
		slog.Int("job", j.id),
		slog.String("kind", kind),
		slog.String("name", j.name))
	go j.pump()
	return j, http.StatusOK, nil
}

// armWatchdog arms an ingest job's idle watchdog (a no-op for other
// jobs or with the watchdog disabled). Shared by startJob and journal
// recovery — a resumed stream gets a fresh idle window for its producer
// to reattach in.
func (s *server) armWatchdog(j *job) {
	if j.ingest == nil || s.ingestIdle <= 0 {
		return
	}
	idle := s.ingestIdle
	fire := func() {
		j.mu.Lock()
		if j.watchdogDisarmed || j.status != "running" {
			j.mu.Unlock()
			return
		}
		// A producer blocked in backpressure is not idle: its queued
		// sessions are still draining through the replay. Nor is one
		// whose last successful push was under the deadline ago —
		// re-arm for the remainder instead of trusting timer resets
		// to have raced correctly.
		remaining := idle - time.Since(j.lastActive)
		if j.ingest.Pending() > 0 || remaining > 0 {
			if remaining < idle/10 {
				remaining = idle / 10
			}
			j.idleTimer.Reset(remaining)
			j.mu.Unlock()
			return
		}
		j.idleFired = true
		j.mu.Unlock()
		j.replay.Cancel()
	}
	j.mu.Lock()
	j.lastActive = time.Now()
	j.idleTimer = time.AfterFunc(idle, fire)
	j.mu.Unlock()
}

// pump follows the replay to completion: snapshot history grows as the
// job runs (broadcast to every follower), and the terminal status is
// settled from the replay outcome.
func (j *job) pump() {
	for snap := range j.replay.Snapshots() {
		j.record(snap)
	}
	res, err := j.replay.Result()

	j.mu.Lock()
	switch {
	case err == nil:
		j.status = "done"
		j.result = res
	case errors.Is(err, context.Canceled):
		j.status = "cancelled"
		j.errMsg = err.Error()
		if j.idleFired {
			j.errMsg = "ingest stream idle: the producer pushed nothing before the idle deadline; job cancelled"
		}
	default:
		j.status = "failed"
		j.errMsg = err.Error()
	}
	// The interrupt closure pins the submitting request's connection
	// (ResponseController and buffers); drop it so a settled job in the
	// retained registry does not keep up to 32 dead connections alive.
	j.interrupt = nil
	j.broadcastLocked()
	status, errMsg := j.status, j.errMsg
	j.mu.Unlock()

	if j.idleTimer != nil {
		j.idleTimer.Stop()
	}
	if j.cleanup != nil {
		j.cleanup()
		j.cleanup = nil
	}
	// Persist the terminal state: a done job's full result document
	// first, then the journalled terminal record — the order that keeps
	// "journal says done" implying "the store can serve it".
	j.persistFinished()
	// Fold the stream's stall total into the retired accumulator after
	// cleanup aborted the queue, so the live sum never counts a stall
	// that lands between retirement and the abort.
	j.srv.retireIngest(j)
	j.srv.met.jobsFinished.With1(status).Inc()
	j.srv.logger.Info("job finished",
		slog.Int("job", j.id),
		slog.String("kind", j.kind),
		slog.String("status", status),
		slog.String("err", errMsg),
		slog.Duration("ran", time.Since(j.started)))
}

// record appends one snapshot to the job's retained history and wakes
// its followers.
func (j *job) record(snap engine.Snapshot) {
	t0 := time.Now()
	j.mu.Lock()
	j.snaps = append(j.snaps, snap)
	if len(j.snaps) > maxJobSnapshots {
		// Drop the older half in one move, so eviction costs O(1)
		// amortised per snapshot instead of an O(cap) shift on every
		// append past the cap.
		drop := len(j.snaps) - maxJobSnapshots/2
		j.snaps = append(j.snaps[:0], j.snaps[drop:]...)
		j.snapsStart += drop
	}
	j.broadcastLocked()
	j.mu.Unlock()
	j.srv.met.snapshotEmit.Observe(time.Since(t0).Seconds())
}

// handleCreateJob starts an asynchronous replay: the request returns as
// soon as the job is admitted (202) and the replay runs in the
// background, pollable through GET /v1/jobs/{id} and streamable through
// GET /v1/jobs/{id}/snapshots until DELETE cancels it.
func (s *server) handleCreateJob(w http.ResponseWriter, r *http.Request) {
	if s.handleDraining(w) {
		return
	}
	sp, err := parseSpec(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	switch r.URL.Query().Get("source") {
	case "generator":
		sp.kind = "generator"
	case "ingest":
		sp.kind = "ingest"
		sp.rawQuery = r.URL.RawQuery
	default:
		sp.kind = "trace"
	}
	// Claim the quota slot before spooling the body, so over-quota
	// submissions are refused without writing a byte to disk. The
	// Retry-After gives client backoff a real signal: quota clears as
	// soon as a running replay settles.
	if err := s.claimSlot(); err != nil {
		w.Header().Set("Retry-After", quotaRetryAfter)
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	src, cleanup, err := s.jobSource(w, r)
	if err != nil {
		s.releaseSlot()
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, err)
		return
	}
	j, status, err := s.startJob(context.Background(), sp, src, cleanup)
	if err != nil {
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.view())
}

// errIngestJobOver is the abort cause recorded when an ingest job
// settles (done, failed or cancelled) and its queue is torn down: the
// diagnosis a producer sees when it keeps pushing afterwards.
var errIngestJobOver = errors.New("the replay job is no longer running")

// ingestBatch is the JSON form of one sessions push: a batch of
// sessions in start order, optionally advancing the watermark after the
// batch lands.
type ingestBatch struct {
	Sessions     []trace.Session `json:"sessions"`
	WatermarkSec *int64          `json:"watermark_sec,omitempty"`
}

// ingestJob resolves {id} to an ingest job, writing the error response
// itself otherwise.
func (s *server) ingestJob(w http.ResponseWriter, r *http.Request) *job {
	j := s.lookup(w, r)
	if j == nil {
		return nil
	}
	if j.ingest == nil {
		writeError(w, http.StatusConflict, fmt.Errorf("job %d is not an ingest job", j.id))
		return nil
	}
	return j
}

// touchIngest records successful producer activity. The watchdog
// measures idleness against the last touch (and against queue depth),
// so touching per accepted session keeps a long-running batch alive
// without racing timer resets against a concurrent fire.
func (j *job) touchIngest() {
	if j.idleTimer == nil {
		return
	}
	j.mu.Lock()
	j.lastActive = time.Now()
	j.mu.Unlock()
}

// handleIngestSessions appends a batch of sessions to a live ingest
// job: CSV rows (the interchange columns, header optional) or a JSON
// {"sessions": [...]} document by Content-Type. The watermark advances
// when the JSON carries watermark_sec or the request a ?watermark=
// query. Pushes block while the replay's queue is full — backpressure
// on the producer — and a batch rejected part-way reports how many
// sessions landed so the producer can resume without double-pushing.
func (s *server) handleIngestSessions(w http.ResponseWriter, r *http.Request) {
	j := s.ingestJob(w, r)
	if j == nil {
		return
	}
	var (
		sessions  []trace.Session
		watermark *int64
	)
	// The batch is materialised before pushing (so ordering failures can
	// report an exact resume point), so cap it well below -max-body —
	// which was sized for disk-spooled trace uploads, not for RAM. A
	// producer with more than a few hundred thousand sessions per push
	// splits the batch; that is the protocol's shape anyway.
	limit := s.maxBody
	if limit > maxIngestBatchBytes {
		limit = maxIngestBatchBytes
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		var batch ingestBatch
		if err := json.NewDecoder(body).Decode(&batch); err != nil {
			writeError(w, batchErrStatus(err), fmt.Errorf("decode session batch: %w", err))
			return
		}
		sessions, watermark = batch.Sessions, batch.WatermarkSec
	} else {
		var err error
		if sessions, err = trace.ReadSessionsCSV(body); err != nil {
			writeError(w, batchErrStatus(err), err)
			return
		}
	}
	if raw := r.URL.Query().Get("watermark"); raw != "" {
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("query watermark: %w", err))
			return
		}
		watermark = &n
	}
	s.met.ingestBatches.Inc()

	pushed := 0
	for _, sess := range sessions {
		if err := j.ingest.PushContext(r.Context(), sess); err != nil {
			// The accepted prefix is real ingested data the response
			// reports (and producers resume from) — journal it before
			// acknowledging it.
			if perr := s.journalBatch(j, sessions[:pushed], false); perr != nil {
				writeError(w, http.StatusInternalServerError, fmt.Errorf("journal batch: %w", perr))
				return
			}
			writeIngestError(w, r, j, pushed, err)
			return
		}
		pushed++
		s.met.ingestSessions.Inc()
		// Touch per accepted session, not per batch: a large batch
		// draining through backpressure for longer than the idle
		// deadline is a live producer, not a silent one.
		j.touchIngest()
	}
	advanced := false
	if watermark != nil {
		if err := j.ingest.AdvanceContext(r.Context(), *watermark); err != nil {
			if perr := s.journalBatch(j, sessions[:pushed], false); perr != nil {
				writeError(w, http.StatusInternalServerError, fmt.Errorf("journal batch: %w", perr))
				return
			}
			writeIngestError(w, r, j, pushed, err)
			return
		}
		advanced = true
		j.touchIngest()
	}
	// Fsync-on-commit: the batch record must be durable before the 200
	// acknowledges it. A journal failure here refuses the ack — the
	// producer must treat the batch as indeterminate — rather than
	// acknowledging sessions a restart would forget.
	if err := s.journalBatch(j, sessions[:pushed], advanced); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("journal batch: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"job":           j.id,
		"pushed":        pushed,
		"total_pushed":  j.ingest.Pushed(),
		"watermark_sec": j.ingest.Watermark(),
	})
}

// batchErrStatus distinguishes an oversized batch (413, the cap is the
// server's) from a malformed one (400, the bytes are the producer's).
func batchErrStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// writeIngestError maps a push/advance failure onto an HTTP status:
// ordering violations and a stream that no longer accepts input are
// state conflicts (409), a producer that disconnected mid-push gets no
// response (nobody is listening), anything else — malformed or
// out-of-range sessions — is a bad request. The response carries how
// many sessions of the batch landed before the failure.
func writeIngestError(w http.ResponseWriter, r *http.Request, j *job, pushed int, err error) {
	if r.Context().Err() != nil {
		// The push failed because this producer went away, not because
		// the stream refused it.
		return
	}
	status := http.StatusBadRequest
	if errors.Is(err, consumelocal.ErrOutOfOrder) || errors.Is(err, consumelocal.ErrIngestClosed) {
		status = http.StatusConflict
	}
	writeJSON(w, status, map[string]any{
		"error":  err.Error(),
		"job":    j.id,
		"pushed": pushed,
	})
}

// handleIngestFinish seals an ingest stream: no further sessions are
// accepted, the queued ones drain, the final windows settle and the job
// completes ("done"). Sealing an already-sealed stream is a no-op;
// sealing a cancelled or failed job reports the conflict.
func (s *server) handleIngestFinish(w http.ResponseWriter, r *http.Request) {
	j := s.ingestJob(w, r)
	if j == nil {
		return
	}
	if err := j.ingest.Close(); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	// The stream is sealed: no further producer activity is expected or
	// possible, so disarm the watchdog — a large queued backlog may
	// legitimately take longer than the idle deadline to drain.
	if j.idleTimer != nil {
		j.mu.Lock()
		j.watchdogDisarmed = true
		j.mu.Unlock()
		j.idleTimer.Stop()
	}
	writeJSON(w, http.StatusOK, j.view())
}

// handleReplay is the synchronous form: it consumes a trace CSV from
// the request body — streamed, never spooled — and writes NDJSON
// snapshots back while the replay progresses, finishing with a summary
// line. Disconnecting cancels the replay (the request context is the
// job's context); the job stays queryable through /v1/jobs afterwards.
func (s *server) handleReplay(w http.ResponseWriter, r *http.Request) {
	if s.handleDraining(w) {
		return
	}
	sp, err := parseSpec(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sp.kind = "sync"
	// The replay reads the request body while snapshots stream out on
	// the response: opt in to concurrent read/write on HTTP/1.x, where
	// the server otherwise closes the body at the first response write.
	_ = http.NewResponseController(w).EnableFullDuplex()

	if err := s.claimSlot(); err != nil {
		w.Header().Set("Retry-After", quotaRetryAfter)
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	// The same body cap as /v1/jobs: exceeding it mid-replay fails the
	// job with a body-read error. The read deadline covers only the
	// pre-registration phase (CSV header, job startup): a client that
	// stalls before the job is registered cannot pin its claimed slot
	// unseen, while one that stalls afterwards holds a visible running
	// job an operator can DELETE. The deadline is lifted below, since
	// the engine reads the body for the whole replay.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Now().Add(spoolIdleTimeout))
	src, err := consumelocal.CSVSource(http.MaxBytesReader(nil, r.Body, s.maxBody))
	if err != nil {
		s.releaseSlot()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The response is attached as a Sink, not a follower over the
	// retained history: sinks deliver every snapshot with backpressure
	// (a slow client slows the replay), so the synchronous stream is
	// always complete — unlike /v1/jobs/{id}/snapshots, which may skip
	// ahead past evicted history.
	sink := &syncSink{w: w, ready: make(chan struct{})}
	j, status, err := s.startJob(r.Context(), sp, src, nil, consumelocal.WithSink(sink))
	if err != nil {
		writeError(w, status, err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Job-ID", strconv.Itoa(j.id))
	w.WriteHeader(http.StatusOK)
	_ = rc.SetReadDeadline(time.Time{})
	j.mu.Lock()
	j.interrupt = func() { _ = rc.SetReadDeadline(time.Now()) }
	j.mu.Unlock()
	sink.start(j.id)

	// Snapshot lines stream from the replay's pump goroutine; wait for
	// the job to settle before writing the closing line (no writes
	// interleave — sinks finish before the status transition lands).
	// The wait does not bail on r.Context().Done(): the request context
	// is the job's context, so a disconnect unwinds the replay and
	// settles the status promptly, and returning earlier would let the
	// sink write to the ResponseWriter after the handler exits.
	for {
		j.mu.Lock()
		settled := j.status != "running"
		changed := j.changed
		j.mu.Unlock()
		if settled {
			break
		}
		<-changed
	}

	j.mu.Lock()
	res, errMsg := j.result, j.errMsg
	j.mu.Unlock()
	if errMsg != "" {
		sink.write(replayLine{Job: j.id, Error: errMsg})
		return
	}
	if res != nil {
		sink.write(replayLine{Job: j.id, Summary: summarize(res)})
	}
}

// syncSink streams each snapshot of a synchronous replay straight onto
// the response as it settles. It blocks snapshot delivery until start
// publishes the job id (the replay begins before registration hands the
// id back), and a failed client write aborts the replay through the
// sink-error path.
type syncSink struct {
	w     http.ResponseWriter
	id    int
	ready chan struct{}
}

// start releases snapshot delivery once the job id is known.
func (s *syncSink) start(id int) {
	s.id = id
	close(s.ready)
}

func (s *syncSink) write(l replayLine) error {
	if err := json.NewEncoder(s.w).Encode(l); err != nil {
		return err
	}
	if flusher, ok := s.w.(http.Flusher); ok {
		flusher.Flush()
	}
	return nil
}

// Snapshot implements consumelocal.Sink.
func (s *syncSink) Snapshot(snap engine.Snapshot) error {
	<-s.ready
	return s.write(replayLine{Job: s.id, Snapshot: &snap})
}

// Finish implements consumelocal.Sink; the handler writes the closing
// summary/error line itself after the job record settles.
func (s *syncSink) Finish(*sim.Result, error) error { return nil }

// replayLine is one NDJSON line of the synchronous replay response.
type replayLine struct {
	Job      int              `json:"job"`
	Snapshot *engine.Snapshot `json:"snapshot,omitempty"`
	Error    string           `json:"error,omitempty"`
	Summary  *replaySummary   `json:"summary,omitempty"`
}

// follow replays the job's snapshot history through emit — past entries
// first, then live ones as they land — until the job finishes or ctx is
// done. Positions are absolute snapshot indices, so eviction of the
// retained window (snapsStart advancing) makes a lagging follower skip
// the dropped entries instead of stalling.
func (j *job) follow(ctx context.Context, emit func(engine.Snapshot)) {
	next := 0
	for {
		j.mu.Lock()
		if next < j.snapsStart {
			next = j.snapsStart
		}
		pending := append([]engine.Snapshot(nil), j.snaps[next-j.snapsStart:]...)
		next = j.snapsStart + len(j.snaps)
		finished := j.status != "running"
		changed := j.changed
		j.mu.Unlock()

		for _, snap := range pending {
			emit(snap)
		}
		if finished {
			return
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return
		}
	}
}

// handleJobSnapshots streams a job's snapshots as NDJSON: the full
// history first, then live mid-flight snapshots until the job finishes,
// closing with a status line. Any number of followers may attach to the
// same running job.
func (s *server) handleJobSnapshots(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	j.follow(r.Context(), func(snap engine.Snapshot) {
		_ = enc.Encode(snap)
		if flusher != nil {
			flusher.Flush()
		}
	})
	j.mu.Lock()
	status, errMsg := j.status, j.errMsg
	j.mu.Unlock()
	if status != "running" {
		_ = enc.Encode(map[string]string{"status": status, "error": errMsg})
	}
}

// handleCancelJob cancels a running replay mid-stream. Cancellation is
// idempotent; a finished job reports its settled status unchanged. A
// prompt unwind (the usual case) is reflected in the response — the
// wait is bounded, so a Source stuck inside Next still gets an answer:
// the in-flight view, with status "cancelled" arriving via polling once
// the pipeline releases.
func (s *server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	// A recovered job has no replay behind it and is already settled;
	// cancellation is the idempotent no-op the settled branch reports.
	if j.replay != nil {
		j.replay.Cancel()
	}
	// A sync replay may be blocked reading a stalled client's body,
	// where cancellation is not observed; cut the read so the slot is
	// actually freed.
	j.mu.Lock()
	if j.status == "running" && j.interrupt != nil {
		j.interrupt()
	}
	j.mu.Unlock()
	deadline := time.After(time.Second)
	for {
		j.mu.Lock()
		settled := j.status != "running"
		changed := j.changed
		j.mu.Unlock()
		if settled {
			break
		}
		select {
		case <-changed:
		case <-deadline:
			// Still unwinding (e.g. a Source blocked in Next); report the
			// in-flight view rather than hanging the client.
			writeJSON(w, http.StatusOK, j.view())
			return
		case <-r.Context().Done():
			return
		}
	}
	writeJSON(w, http.StatusOK, j.view())
}

// drainJobs gives running replays up to drain to finish on their own,
// then cancels the stragglers and waits a bounded moment for their
// pipelines to unwind. The shutdown path calls it before closing the
// HTTP server, so in-flight sync replay handlers — which block until
// their job settles — can complete inside the server's own shutdown
// deadline.
func (s *server) drainJobs(drain time.Duration) {
	deadline := time.Now().Add(drain)
	for s.running() > 0 && time.Now().Before(deadline) {
		time.Sleep(25 * time.Millisecond)
	}
	running := s.running()
	if running == 0 {
		return
	}
	s.logger.Info("drain deadline passed; cancelling running jobs", slog.Int("running", running))
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		if j.replay == nil {
			// Recovered jobs are settled and have no pipeline to unwind.
			continue
		}
		j.replay.Cancel()
		// As in DELETE: a sync replay may be blocked reading a stalled
		// client's body where cancellation is not observed; cut the read.
		j.mu.Lock()
		if j.status == "running" && j.interrupt != nil {
			j.interrupt()
		}
		j.mu.Unlock()
	}
	settle := time.Now().Add(5 * time.Second)
	for s.running() > 0 && time.Now().Before(settle) {
		time.Sleep(25 * time.Millisecond)
	}
}

// evictLocked drops the oldest finished jobs once the registry exceeds
// maxRetainedJobs, returning the evicted IDs so the caller can drop
// their stored results outside the lock (eviction must never do file
// I/O under s.mu). Running jobs are never evicted. Callers hold s.mu.
func (s *server) evictLocked() []int {
	if len(s.jobs) <= maxRetainedJobs {
		return nil
	}
	ids := make([]int, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var evicted []int
	for _, id := range ids {
		if len(s.jobs) <= maxRetainedJobs {
			break
		}
		j := s.jobs[id]
		j.mu.Lock()
		finished := j.status != "running"
		j.mu.Unlock()
		if finished {
			delete(s.jobs, id)
			evicted = append(evicted, id)
		}
	}
	return evicted
}

// replaySummary is the closing line of a replay response: system offload
// and energy savings under both published parameter sets.
type replaySummary struct {
	Swarms  int                `json:"swarms"`
	Total   sim.Tally          `json:"total"`
	Offload float64            `json:"offload"`
	Energy  []sim.EnergyReport `json:"energy"`
}

func summarize(res *sim.Result) *replaySummary {
	sum := &replaySummary{
		Swarms:  len(res.Swarms),
		Total:   res.Total,
		Offload: res.Total.Offload(),
	}
	for _, p := range energy.BothModels() {
		sum.Energy = append(sum.Energy, sim.Evaluate(res.Total, p))
	}
	return sum
}

func (s *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]jobView, 0, len(s.jobs))
	for _, j := range s.jobs {
		views = append(views, j.view())
	}
	s.mu.Unlock()
	sort.Slice(views, func(i, k int) bool { return views[i].ID < views[k].ID })
	writeJSON(w, http.StatusOK, views)
}

// lookup resolves the {id} path segment.
func (s *server) lookup(w http.ResponseWriter, r *http.Request) *job {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad job id %q", r.PathValue("id")))
		return nil
	}
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("job %d not found", id))
		return nil
	}
	return j
}

func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.view())
	}
}

// handleJobEnergy prices the job's latest cumulative tally — live while
// the replay runs, final once done — under both Table IV parameter sets.
func (s *server) handleJobEnergy(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	var tally sim.Tally
	if n := len(j.snaps); n > 0 {
		tally = j.snaps[n-1].Cumulative
	}
	if j.result != nil {
		tally = j.result.Total
	}
	status := j.status
	j.mu.Unlock()

	reports := make([]sim.EnergyReport, 0, 2)
	for _, p := range energy.BothModels() {
		reports = append(reports, sim.Evaluate(tally, p))
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"job":     j.id,
		"status":  status,
		"tally":   tally,
		"offload": tally.Offload(),
		"energy":  reports,
	})
}

// handleJobCarbon computes the per-user carbon credit transfer
// distribution (paper Fig. 6) of a finished replay. Requires the replay
// to have tracked users (the default).
func (s *server) handleJobCarbon(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	res := j.result
	status := j.status
	j.mu.Unlock()
	if res == nil {
		writeError(w, http.StatusConflict, fmt.Errorf("job %d is %s; carbon credits need a finished replay", j.id, status))
		return
	}
	if res.Users == nil {
		writeError(w, http.StatusConflict, fmt.Errorf("job %d ran without user tracking (track_users=false)", j.id))
		return
	}
	dists := make([]carbon.Distribution, 0, 2)
	for _, p := range energy.BothModels() {
		dists = append(dists, carbon.Distribute(res.Users, p))
	}
	writeJSON(w, http.StatusOK, map[string]any{"job": j.id, "carbon": dists})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
