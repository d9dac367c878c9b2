package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"consumelocal"
	"consumelocal/internal/joblog"
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

// defaultIngestIdle is how long an ingest job may go without a
// successful sessions/finish call before the daemon concludes the
// producer is gone and cancels the job: a broadcast system that crashed
// mid-stream must not pin a quota slot forever.
const defaultIngestIdle = 5 * time.Minute

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
// never observe a half-built one). A refused replay is a bad request.
func (s *server) startJob(ctx context.Context, sp replaySpec, src consumelocal.Source, cleanup func(), extra ...consumelocal.Option) (*job, error) {
	j, err := s.launch(ctx, sp, src, cleanup, extra...)
	if err != nil {
		s.releaseSlot()
		return nil, err
	}
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

	s.met.jobsSubmitted.With1(j.kind).Inc()
	s.logger.Info("job started",
		slog.Int("job", j.id),
		slog.String("kind", j.kind),
		slog.String("name", j.name))
	go j.pump()
	return j, nil
}

// launch starts the replay of src under ctx and builds the running job
// around it: the one way a job comes to life, whether submitted or
// resumed from the journal. A refused replay runs cleanup. The caller
// gives the job its identity and starts its pump.
func (s *server) launch(ctx context.Context, sp replaySpec, src consumelocal.Source, cleanup func(), extra ...consumelocal.Option) (*job, error) {
	j := &job{
		name:     sp.name,
		kind:     sp.kind,
		srv:      s,
		started:  time.Now().UTC(),
		cleanup:  cleanup,
		status:   "running",
		changed:  make(chan struct{}),
		rawQuery: sp.rawQuery,
	}
	// Every job records into the daemon's shared per-stage set, so
	// /metrics exposes daemon-wide source/settle/emit totals. The job is
	// its replay's last sink, after extra ones (the synchronous stream).
	opts := append(sp.options(), consumelocal.WithReplayMetrics(s.met.replay))
	opts = append(append(opts, extra...), consumelocal.WithSink(j))
	rep, err := consumelocal.Replay(ctx, src, opts...)
	if err != nil {
		if cleanup != nil {
			cleanup()
		}
		return nil, err
	}
	j.replay = rep
	// rep.Meta was captured synchronously by Replay before the engine
	// goroutines began consuming src; reading src.Meta() here instead
	// would race any Source whose metadata is not an immutable field.
	j.meta = rep.Meta()
	if j.name == "" {
		j.name = j.meta.Name
	}
	// An ingest-sourced job keeps its queue handle: the sessions/finish
	// endpoints feed it, and the idle watchdog cancels the job when the
	// producer goes silent (a crashed broadcast system must not pin a
	// quota slot forever). Successful ingest calls re-arm the watchdog.
	j.ingest, _ = src.(*consumelocal.IngestSource)
	return j, nil
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
		j.cancel()
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
