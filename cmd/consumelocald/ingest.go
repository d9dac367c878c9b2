package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"consumelocal"
	"consumelocal/internal/trace"
)

// defaultIngestCapacity bounds an ingest job's session queue: deep
// enough to absorb a batch per request, shallow enough that a replay
// falling behind backpressures the pushing client promptly.
const defaultIngestCapacity = 4096

// maxIngestBatchBytes caps one sessions push. Unlike trace uploads
// (spooled to disk under -max-body), a batch is parsed into memory
// before pushing, so it must stay RAM-sized; ~8 MiB is a few hundred
// thousand CSV sessions, far more than a live producer batches.
const maxIngestBatchBytes = 8 << 20

// openIngest opens an ingest job's queue over meta, configured by the
// job's creation query: the queue bound (?capacity=) and the wall-clock
// watermark fallback. startWall starts that clock — a no-op unless the
// query asked for watermark=wall. cleanup runs once the job settles: it
// tears the queue down, so producers blocked in a push unblock and
// later pushes are refused with a closed-stream conflict. Aborting also
// unwinds the wall-clock goroutine; cancelling its context first just
// spares it a doomed Advance.
func openIngest(q url.Values, meta trace.Meta) (ing *consumelocal.IngestSource, startWall, cleanup func(), err error) {
	// One job cannot buffer an unbounded burst in memory: backpressure,
	// not buffering, absorbs a slow replay.
	capacity, err := queryParam(q, "capacity", defaultIngestCapacity, strconv.Atoi)
	if err != nil {
		return nil, nil, nil, err
	}
	if capacity < 1 || capacity > 1<<20 {
		return nil, nil, nil, fmt.Errorf("query capacity: must be in [1, %d], got %d", 1<<20, capacity)
	}
	wall, err := parseWallWatermark(q)
	if err != nil {
		return nil, nil, nil, err
	}
	if ing, err = consumelocal.NewIngestSource(meta, capacity); err != nil {
		return nil, nil, nil, err
	}
	wallCtx, stopWall := context.WithCancel(context.Background())
	startWall = func() {
		if wall.enabled {
			go wallWatermark(wallCtx, ing, meta.HorizonSec, wall.interval, wall.rate)
		}
	}
	cleanup = func() {
		stopWall()
		ing.Abort(errIngestJobOver)
	}
	return ing, startWall, cleanup, nil
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
	if meta.Epoch, err = queryParam(q, "epoch", meta.Epoch, func(raw string) (time.Time, error) {
		return time.Parse(time.RFC3339, raw)
	}); err != nil {
		return meta, err
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
	var err error
	if cfg.interval, err = queryParam(q, "wall_interval", cfg.interval, time.ParseDuration); err != nil {
		return cfg, err
	}
	if cfg.interval < minWallInterval || cfg.interval > maxWallInterval {
		return cfg, fmt.Errorf("query wall_interval: must be in [%s, %s], got %s", minWallInterval, maxWallInterval, cfg.interval)
	}
	if cfg.rate, err = queryParam(q, "wall_rate", cfg.rate, parseFloat); err != nil {
		return cfg, err
	}
	if cfg.rate <= 0 || cfg.rate > maxWallRate {
		return cfg, fmt.Errorf("query wall_rate: must be in (0, %g], got %g", float64(maxWallRate), cfg.rate)
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

// errIngestJobOver is the abort cause recorded when an ingest job
// settles (done, failed or cancelled) and its queue is torn down: the
// diagnosis a producer sees when it keeps pushing afterwards.
var errIngestJobOver = errors.New("the replay job is no longer running")

// errIngestSettled is how a settled stream's torn-down queue refuses
// input. A job recovery settled has no queue; it answers with this
// directly, so producers see the same 409 either way.
var errIngestSettled = fmt.Errorf("%w: %w", consumelocal.ErrIngestClosed, errIngestJobOver)

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
	if j.kind != "ingest" {
		writeError(w, http.StatusConflict, fmt.Errorf("job %d is not an ingest job", j.id))
		return nil
	}
	return j
}

// touchIngest records successful producer activity. The watchdog
// measures idleness against the last touch and against queue depth, so
// one touch per request suffices: a push waits only while the queue is
// full, and the watchdog spares a job whose queue is not empty. Reading
// the touch, rather than resetting the timer, keeps a long-running push
// from racing timer resets against a concurrent fire.
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
	watermark, err := queryParam(r.URL.Query(), "watermark", watermark, func(raw string) (*int64, error) {
		n, err := parseInt(raw)
		return &n, err
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.met.ingestBatches.Inc()

	pushed, advanced, err := j.feed(r.Context(), sessions, watermark)
	// Fsync-on-commit: the accepted prefix — the whole batch on success —
	// must be durable before the response reports it, since producers
	// resume from the pushed count. A journal failure refuses the ack:
	// the producer must treat the batch as indeterminate rather than
	// trust sessions a restart would forget.
	if jerr := s.journalBatch(j, sessions[:pushed], advanced); jerr != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("journal batch: %w", jerr))
		return
	}
	if err != nil {
		writeIngestError(w, r, j, pushed, err)
		return
	}
	total, wm := j.progress()
	writeJSON(w, http.StatusOK, map[string]any{
		"job":           j.id,
		"pushed":        pushed,
		"total_pushed":  total,
		"watermark_sec": wm,
	})
}

// feed pushes a session batch onto the job's stream in one hand-off,
// then advances its watermark, stopping at the first refusal. It
// reports how many sessions landed and whether the watermark moved. A
// job recovery settled has no queue and refuses any input with
// errIngestSettled.
func (j *job) feed(ctx context.Context, sessions []trace.Session, watermark *int64) (pushed int, advanced bool, err error) {
	if j.ingest == nil {
		if len(sessions) > 0 || watermark != nil {
			return 0, false, errIngestSettled
		}
		return 0, false, nil
	}
	pushed, err = j.ingest.PushBatch(ctx, sessions)
	j.srv.met.ingestSessions.Add(float64(pushed))
	if err == nil && watermark != nil {
		err = j.ingest.AdvanceContext(ctx, *watermark)
		advanced = err == nil
	}
	// One touch per request: while the push waited for room the queue
	// was full, which the watchdog already counts as activity.
	if pushed > 0 || advanced {
		j.touchIngest()
	}
	return pushed, advanced, err
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
	err := errIngestJobOver // recovery settled the job: no queue to seal
	if j.ingest != nil {
		err = j.ingest.Close()
	}
	if err != nil {
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
