package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"consumelocal"
	"consumelocal/internal/carbon"
	"consumelocal/internal/energy"
	"consumelocal/internal/engine"
	"consumelocal/internal/sim"
	"consumelocal/internal/swarm"
	"consumelocal/internal/trace"
)

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
	}
}

// parseSpec parses the replay query parameters shared by /v1/replay and
// /v1/jobs. Journal recovery re-parses a resumed ingest job's journalled
// query through it too, so a resume runs under exactly the validation
// its creation did.
func parseSpec(q url.Values) (replaySpec, error) {
	sp := replaySpec{name: q.Get("name")}
	ratio, err := queryParam(q, "ratio", 1.0, parseFloat)
	if err != nil {
		return sp, err
	}
	sp.cfg = engine.DefaultConfig(ratio)
	if sp.cfg.WindowSec, err = queryParam(q, "window", 3600, parseInt); err != nil {
		return sp, err
	}
	// Snapshot history is retained per job; a tiny window on a long
	// horizon would manufacture millions of snapshots, so floor it.
	if sp.cfg.WindowSec < 60 {
		return sp, fmt.Errorf("query window: must be at least 60 seconds, got %d", sp.cfg.WindowSec)
	}
	workers, err := queryParam(q, "workers", int64(runtime.GOMAXPROCS(0)), parseInt)
	if err != nil {
		return sp, err
	}
	sp.cfg.Workers = int(workers)
	if sp.cfg.Sim.ParticipationRate, err = queryParam(q, "participation", 1.0, parseFloat); err != nil {
		return sp, err
	}
	if sp.cfg.Sim.QuantizeTickSec, err = queryParam(q, "tick", 0, parseInt); err != nil {
		return sp, err
	}
	if sp.cfg.Sim.SeedRetentionSec, err = queryParam(q, "seed_retention", 0, parseInt); err != nil {
		return sp, err
	}
	cityWide, err := queryParam(q, "city_wide", false, strconv.ParseBool)
	if err != nil {
		return sp, err
	}
	mixed, err := queryParam(q, "mixed_bitrates", false, strconv.ParseBool)
	if err != nil {
		return sp, err
	}
	sp.cfg.Sim.Swarm = swarm.Options{RestrictISP: !cityWide, SplitBitrate: !mixed}
	sp.cfg.Sim.TrackUsers, err = queryParam(q, "track_users", sp.cfg.Sim.TrackUsers, strconv.ParseBool)
	return sp, err
}

// queryParam parses the optional query parameter key with parse,
// returning def when it is absent. A malformed value is reported as
// "query <key>: <parse error>"; range checks stay with the caller.
func queryParam[T any](q url.Values, key string, def T, parse func(string) (T, error)) (T, error) {
	raw := q.Get(key)
	if raw == "" {
		return def, nil
	}
	v, err := parse(raw)
	if err != nil {
		return v, fmt.Errorf("query %s: %w", key, err)
	}
	return v, nil
}

func parseInt(s string) (int64, error)     { return strconv.ParseInt(s, 10, 64) }
func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

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
		scale, err := queryParam(q, "scale", 0.01, parseFloat)
		if err != nil {
			return nil, nil, err
		}
		// DefaultGeneratorConfig treats scale<=0 as full paper scale —
		// refuse rather than let a typo launch a 23.5M-session job, and
		// bound the upside so one request cannot allocate unbounded
		// per-user tables.
		if scale <= 0 || scale > 1 {
			return nil, nil, fmt.Errorf("query scale: must be in (0, 1], got %g", scale)
		}
		days, err := queryParam(q, "days", 7, strconv.Atoi)
		if err != nil {
			return nil, nil, err
		}
		// The generator allocates days*24 hour buckets up front; bound
		// it so one request cannot OOM the daemon.
		if days < 1 || days > 365 {
			return nil, nil, fmt.Errorf("query days: must be in [1, 365], got %d", days)
		}
		seed, err := queryParam(q, "seed", 1, parseInt)
		if err != nil {
			return nil, nil, err
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
		ing, startWall, cleanup, err := openIngest(q, meta)
		if err != nil {
			return nil, nil, err
		}
		startWall()
		return ing, cleanup, nil
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

// handleCreateJob starts an asynchronous replay: the request returns as
// soon as the job is admitted (202) and the replay runs in the
// background, pollable through GET /v1/jobs/{id} and streamable through
// GET /v1/jobs/{id}/snapshots until DELETE cancels it.
func (s *server) handleCreateJob(w http.ResponseWriter, r *http.Request) {
	if s.handleDraining(w) {
		return
	}
	sp, err := parseSpec(r.URL.Query())
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
	j, err := s.startJob(context.Background(), sp, src, cleanup)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.view())
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
	sp, err := parseSpec(r.URL.Query())
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
	j, err := s.startJob(r.Context(), sp, src, nil, consumelocal.WithSink(sink))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
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

	// Snapshot lines stream from the replay's collector goroutine while
	// its feed goroutine reads the request body, so the connection reads
	// and writes at once (hence EnableFullDuplex above); wait for the job
	// to settle before writing the closing line (no writes interleave —
	// sinks finish before the status transition lands).
	// The wait does not bail on r.Context().Done(): the request context
	// is the job's context, so a disconnect unwinds the replay and
	// settles the status promptly, and returning earlier would let the
	// sink write to the ResponseWriter after the handler exits.
	j.wait(context.Background())

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
	j.cancel()
	ctx, stop := context.WithTimeout(r.Context(), time.Second)
	defer stop()
	if !j.wait(ctx) && r.Context().Err() != nil {
		return
	}
	writeJSON(w, http.StatusOK, j.view())
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
