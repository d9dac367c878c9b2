package main

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"strings"
	"time"

	"consumelocal"
	"consumelocal/internal/engine"
	"consumelocal/internal/joblog"
	"consumelocal/internal/sim"
	"consumelocal/internal/trace"
)

// storedResult is the result-store document of one finished job: the
// exact view GET /v1/jobs/{id} served plus the result /energy and
// /carbon price, so a restarted daemon re-serves the job byte-for-byte
// without re-running the replay. Floats survive the JSON round trip
// exactly (encoding/json emits shortest-round-trip representations),
// which is what makes "byte-identical after restart" achievable rather
// than approximate. Documents written by older daemons lack the view's
// status and error and also carry a "mode" field, which decoding
// ignores.
type storedResult struct {
	jobView
	Result *sim.Result `json:"result"`
}

// errInterrupted is the deterministic terminal error of jobs the
// journal shows running at the moment the daemon died and that cannot
// be resumed (non-ingest sources, or an ingest stream whose journal
// predates payload-carrying batch records): recovery fails them loudly
// instead of pretending.
const errInterrupted = "failed (daemon restart): the replay was interrupted before it finished"

// recoveryInfo is the /healthz "recovery" payload: what the last
// journal replay did. Immutable once openDurability returns.
type recoveryInfo struct {
	Restored     int     `json:"restored_jobs"`
	Resumed      int     `json:"resumed_jobs"`
	ResumeFailed int     `json:"resume_failed_jobs"`
	Interrupted  int     `json:"interrupted_jobs"`
	Carried      int     `json:"carried_jobs"`
	Dropped      int     `json:"dropped_jobs"`
	TornTail     bool    `json:"torn_tail"`
	Sessions     int64   `json:"sessions_restored"`
	DurationMs   float64 `json:"duration_ms"`
}

// openDurability attaches the journal and result store under dataDir
// and replays the journal into the registry: finished jobs come back
// with their stored results, in-flight ingest streams resume, other
// jobs that were running when the daemon died are deterministically
// failed, and the monotonic ingest counters are restored. The journal
// is then compacted with the same plan online compaction uses. Must run
// before the listener binds: once the daemon serves requests, recovery
// is complete.
func (s *server) openDurability(dataDir string) error {
	t0 := time.Now()
	jl, rec, err := joblog.Open(dataDir)
	if err != nil {
		return err
	}
	store, err := joblog.OpenStore(dataDir)
	if err != nil {
		jl.Close()
		return err
	}
	jl.OnFsync = s.met.journalFsync.Observe
	jl.OnAppend = func(recordType string) { s.met.journalRecords.With1(recordType).Inc() }
	jl.OnFault = func(kind string) { s.met.journalFaults.With1(kind).Inc() }
	s.jl, s.store = jl, store

	info := recoveryInfo{TornTail: rec.TornTail, Sessions: rec.Sessions}
	if rec.TornTail {
		s.met.recoveryTorn.Inc()
	}
	// Restore the monotonic ingest counters from the journal totals, so
	// a client ledger built on counter deltas (the loadtest skew
	// cross-check) survives the restart instead of watching the counter
	// reset to zero.
	s.met.ingestSessions.Add(float64(rec.Sessions))
	s.met.ingestBatches.Add(float64(rec.Batches))

	// The retention cap applies across restarts too: only the newest
	// maxRetainedJobs journalled jobs come back; older ones are dropped
	// with their stored results, and compaction forgets them.
	if n := len(rec.Jobs) - maxRetainedJobs; n > 0 {
		for _, st := range rec.Jobs[:n] {
			info.Dropped++
			s.met.recoveryJobs.With1("dropped").Inc()
			_ = store.Delete(st.ID)
		}
		rec.Jobs = rec.Jobs[n:]
	}
	tally := map[string]*int{
		"restored": &info.Restored, "resumed": &info.Resumed, "resume_failed": &info.ResumeFailed,
		"interrupted": &info.Interrupted, "carried": &info.Carried, "dropped": &info.Dropped,
	}
	for _, st := range rec.Jobs {
		j, outcome := s.recoverJob(st)
		s.jobs[j.id] = j
		*tally[outcome]++
		s.met.recoveryJobs.With1(outcome).Inc()
	}
	if rec.MaxID >= s.nextID {
		s.nextID = rec.MaxID + 1
	}

	// recoverJob folded every settled outcome back into its state, so
	// the online plan journals exactly what the registry now serves: a
	// checkpoint, a created+finished pair per settled job, and a resumed
	// stream's created record plus its full batch tail, so it stays
	// resumable across the next crash too.
	if err := jl.Rewrite(joblog.CompactionPlan(rec)); err != nil {
		return fmt.Errorf("compact journal: %w", err)
	}
	s.compactFloor.Store(jl.Size())
	info.DurationMs = float64(time.Since(t0).Microseconds()) / 1e3
	s.recovered = info
	s.met.recoverySecs.Set(time.Since(t0).Seconds())
	return nil
}

// recoverJob rebuilds one registry entry from its journal state and
// folds recovery's decision back into st: every job it settles gets
// its terminal status, error and snapshot count there, with the batch
// tail cleared. The returned outcome labels the recovery_jobs_total
// metric: "restored" (done, result re-served), "resumed" (an ingest
// stream rebuilt live), "resume_failed" or "interrupted" (was running,
// now failed), "carried" (already failed/cancelled, status re-served)
// or "dropped" (journal says done but the result store has no
// document).
func (s *server) recoverJob(st *joblog.JobState) (*job, string) {
	var sr storedResult
	outcome := "carried"
	switch st.Status {
	case "done":
		ok, err := s.store.Get(st.ID, &sr)
		if ok && err == nil {
			outcome = "restored"
			break
		}
		s.logger.Warn("recovery: stored result missing",
			slog.Int("job", st.ID), slog.Any("err", err))
		st.Status, st.Snapshots = "failed", 0
		st.Error = "result lost: the journal records this job done but the result store has no document"
		outcome = "dropped"
	case "failed", "cancelled":
	default:
		// No terminal record: the daemon died while this job ran. An
		// ingest job whose journal carries its creation query and full
		// batch payloads is rebuilt live — re-fed deterministically from
		// the journal, the producer none the wiser. Anything else (or a
		// resume that fails) is failed loudly.
		outcome = "interrupted"
		if st.Kind == "ingest" && st.Created != nil && st.Created.Query != "" {
			j, err := s.resumeJob(st)
			if err == nil {
				return j, "resumed"
			}
			s.logger.Warn("recovery: resume failed; job falls back to interrupted",
				slog.Int("job", st.ID), slog.String("err", err.Error()))
			outcome = "resume_failed"
		}
		st.Status, st.Error = "failed", errInterrupted
	}
	st.Tail = nil
	j := &job{
		id:         st.ID,
		name:       st.Name,
		kind:       st.Kind,
		srv:        s,
		started:    st.Started,
		meta:       st.Meta,
		status:     st.Status,
		errMsg:     st.Error,
		snapsStart: st.Snapshots,
		pushed:     st.Sessions,
		watermark:  st.Watermark,
		changed:    make(chan struct{}),
	}
	if outcome == "restored" {
		// Trust the stored document: it captured the exact view the
		// daemon served before the crash.
		j.name, j.kind, j.meta, j.started = sr.Name, sr.Kind, sr.Meta, sr.Started
		j.pushed, j.watermark = sr.Pushed, sr.Watermark
		j.result = sr.Result
		j.snapsStart = 0
		if sr.Snapshots > 0 {
			j.snaps = []engine.Snapshot{sr.Snapshot}
			j.snapsStart = sr.Snapshots - 1
		}
	}
	return j, outcome
}

// resumeJob rebuilds a live ingest job from its journal state: the
// creation query is re-parsed into the same replay configuration, a
// fresh IngestSource and streaming run are started, and the journalled
// batch tail — every session the old daemon fsynced before acking — is
// re-fed in journal order, restoring the ordering floor, the watermark,
// and the monotonic pushed counter exactly. The job re-enters "running"
// with a fresh idle window, so a producer retrying its next batch gets
// the same 200/409 semantics as if the crash never happened, and the
// final result is bit-for-bit what an uninterrupted run yields.
func (s *server) resumeJob(st *joblog.JobState) (*job, error) {
	q, err := url.ParseQuery(st.Created.Query)
	if err != nil {
		return nil, fmt.Errorf("journalled query: %w", err)
	}
	sp, err := parseSpec(q)
	if err != nil {
		return nil, fmt.Errorf("journalled query: %w", err)
	}
	// An old-format journal records batch counts without payloads; those
	// streams cannot be reproduced and must fail honestly instead.
	for _, t := range st.Tail {
		if t.Type == joblog.TypeBatch && t.Sessions > 0 && t.CSV == "" {
			return nil, fmt.Errorf("journal batch records carry no session payload (pre-resume journal format)")
		}
	}
	ing, startWall, cleanup, err := openIngest(q, st.Meta)
	if err != nil {
		return nil, fmt.Errorf("reopen ingest stream: %w", err)
	}
	sp.kind, sp.rawQuery = st.Kind, st.Created.Query
	j, err := s.launch(context.Background(), sp, ing, cleanup)
	if err != nil {
		return nil, err
	}
	j.id, j.name, j.started = st.ID, st.Name, st.Started
	// The re-feed pushes through the bounded queue, and the engine stops
	// reading it once the snapshot buffer fills: drain the run from the
	// start (the job records each window the tail settles as its sink),
	// or a long tail blocks Push — and recovery — forever.
	go j.replay.Result()
	if err := refeed(ing, st); err != nil {
		// Unwind the half-built pipeline: abort the queue and cancel the
		// run; the drain above lets its goroutines exit.
		cleanup()
		j.replay.Cancel()
		return nil, err
	}

	// The wall clock restarts only after the re-feed: Advance is
	// monotonic and the ticker skips targets at or below the restored
	// watermark, so a restart never regresses it.
	startWall()
	s.armWatchdog(j)
	go j.pump()
	return j, nil
}

// refeed pushes a journalled batch tail into ing in journal order:
// every session the old daemon fsynced before acking, each watermark
// after its batch, exactly as the original requests interleaved.
func refeed(ing *consumelocal.IngestSource, st *joblog.JobState) error {
	for _, t := range st.Tail {
		if t.CSV != "" {
			sessions, err := trace.ReadSessionsCSV(strings.NewReader(t.CSV))
			if err != nil {
				return fmt.Errorf("replay journalled batch: %w", err)
			}
			if _, err := ing.PushBatch(context.Background(), sessions); err != nil {
				return fmt.Errorf("replay journalled batch: %w", err)
			}
		}
		if t.WatermarkSec > ing.Watermark() {
			if err := ing.Advance(t.WatermarkSec); err != nil {
				return fmt.Errorf("replay journalled watermark: %w", err)
			}
		}
	}
	if got := ing.Pushed(); got != st.Sessions {
		return fmt.Errorf("re-fed %d sessions but the journal accounts %d", got, st.Sessions)
	}
	return nil
}

// closeDurability syncs and closes the journal on shutdown.
func (s *server) closeDurability() {
	if s.jl == nil {
		return
	}
	if err := s.jl.Close(); err != nil {
		s.logger.Warn("journal close failed", slog.String("err", err.Error()))
	}
}

// createdRecord renders a job's admission record. For ingest jobs it
// carries the creation query string — the recipe a restarted daemon
// resumes the stream from.
func (s *server) createdRecord(j *job) joblog.Record {
	meta := j.meta
	return joblog.Record{
		Type:    joblog.TypeCreated,
		Job:     j.id,
		Name:    j.name,
		Kind:    j.kind,
		Started: j.started,
		Meta:    &meta,
		Query:   j.rawQuery,
	}
}

// journalAppend commits one record, degrading loudly on failure: an
// append error (disk full, journal closed) means restart fidelity is
// lost for this transition, not that the in-memory job is wrong. The
// one exception is the batch-acknowledgement path, which uses
// journalBatch and refuses the ack instead.
func (s *server) journalAppend(rec joblog.Record) {
	if s.jl == nil {
		return
	}
	if err := s.jl.Append(rec); err != nil {
		s.met.journalErrors.Inc()
		s.logger.Error("journal append failed",
			slog.String("type", rec.Type),
			slog.Int("job", rec.Job),
			slog.String("err", err.Error()))
	}
}

// journalCSVChunk bounds one batch record's CSV payload. An HTTP batch
// may run to maxIngestBatchBytes (8 MiB), well past the 1 MiB journal
// frame cap, so an oversized batch is split across records — each row
// lands exactly once, and only the final chunk carries the watermark so
// a resume's re-feed never advances the floor ahead of unfed rows.
const journalCSVChunk = 256 << 10

// journalBatch durably records an accepted ingest batch (or a bare
// watermark advance) — payload included, so a restart can re-feed it —
// before the handler acknowledges it. A nil error means the records are
// fsynced (one write, one fsync, however many chunks); on failure the
// caller must not acknowledge the sessions as accepted.
func (s *server) journalBatch(j *job, accepted []trace.Session, advanced bool) error {
	if s.jl == nil || (len(accepted) == 0 && !advanced) {
		return nil
	}
	watermark := j.ingest.Watermark()
	var recs []joblog.Record
	if len(accepted) == 0 {
		recs = []joblog.Record{{Type: joblog.TypeWatermark, Job: j.id, WatermarkSec: watermark}}
	} else {
		csv := make([]byte, 0, min(len(accepted)*32, journalCSVChunk+64))
		count := int64(0)
		flush := func() {
			recs = append(recs, joblog.Record{
				Type:     joblog.TypeBatch,
				Job:      j.id,
				Sessions: count,
				CSV:      string(csv),
			})
			csv, count = csv[:0], 0
		}
		for _, sess := range accepted {
			csv = trace.AppendSessionCSV(csv, sess)
			count++
			if len(csv) >= journalCSVChunk {
				flush()
			}
		}
		if count > 0 {
			flush()
		}
		recs[len(recs)-1].WatermarkSec = watermark
	}
	if err := s.jl.AppendBatch(recs); err != nil {
		s.met.journalErrors.Inc()
		s.logger.Error("journal batch append failed",
			slog.Int("job", j.id), slog.String("err", err.Error()))
		return err
	}
	s.maybeCompact()
	return nil
}

// maybeCompact kicks off a background online compaction once the
// journal has grown compactBytes past its last compacted size: the
// journal is re-replayed and rewritten to a checkpoint plus live batch
// tails (joblog.CompactionPlan) while the daemon keeps serving. At most
// one pass runs at a time; appends block only for the rewrite itself,
// which the threshold keeps bounded.
func (s *server) maybeCompact() {
	if s.jl == nil || s.compactBytes <= 0 {
		return
	}
	if s.jl.Size() < s.compactFloor.Load()+s.compactBytes {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.compacting.Store(false)
		reclaimed, err := s.jl.Compact(joblog.CompactionPlan)
		s.compactFloor.Store(s.jl.Size())
		if err != nil {
			s.met.journalErrors.Inc()
			s.logger.Error("journal compaction failed", slog.String("err", err.Error()))
			return
		}
		s.met.journalCompactions.Inc()
		if reclaimed > 0 {
			s.met.journalReclaimed.Add(float64(reclaimed))
		}
		s.logger.Info("journal compacted",
			slog.Int64("reclaimed_bytes", reclaimed),
			slog.Int64("size_bytes", s.jl.Size()))
	}()
}

// dropStored deletes evicted jobs' results and journals the eviction,
// so a restart does not resurrect jobs the retention window already
// let go. Runs outside s.mu — file I/O never happens under the
// registry lock.
func (s *server) dropStored(ids []int) {
	if s.jl == nil {
		return
	}
	for _, id := range ids {
		_ = s.store.Delete(id)
		s.journalAppend(joblog.Record{Type: joblog.TypeEvicted, Job: id})
	}
}

// persistFinished is pump's terminal hook under a data dir, run before
// the job publishes status: store a done job's view and full result
// res first, then journal the terminal record — in that order, so a
// journal that says "done" always has a result behind it. A failed
// store write downgrades the journalled status: the job stays "done" in
// memory for this process's lifetime, but a restart will (correctly)
// refuse to promise a result it does not have.
func (j *job) persistFinished(status, errMsg string, res *sim.Result) {
	s := j.srv
	if s.jl == nil {
		return
	}
	v := j.view()
	v.Status, v.Error = status, errMsg
	if v.Status == "done" {
		sr := storedResult{jobView: v, Result: res}
		if err := s.store.Put(j.id, &sr); err != nil {
			s.met.journalErrors.Inc()
			s.logger.Error("result store write failed",
				slog.Int("job", j.id), slog.String("err", err.Error()))
			return
		}
	}
	s.journalAppend(joblog.Record{
		Type:         joblog.TypeFinished,
		Job:          j.id,
		Status:       v.Status,
		Error:        v.Error,
		Snapshots:    v.Snapshots,
		Sessions:     v.Pushed,
		WatermarkSec: v.Watermark,
	})
}

// handleDraining refuses new work while the daemon drains for
// shutdown: a clean 503 with a Retry-After is a real signal a client
// policy can key off, where a connection that hangs until the listener
// dies is not. Returns true when the request was answered.
func (s *server) handleDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	w.Header().Set("Retry-After", drainRetryAfter)
	writeError(w, http.StatusServiceUnavailable,
		fmt.Errorf("daemon is draining for shutdown; retry against another instance"))
	return true
}

// Retry-After hints, in seconds. Quota refusals clear as soon as a
// running replay settles; a draining daemon is gone for good, so the
// hint is only how long a client should wait before trying a
// (restarted or rescheduled) instance.
const (
	quotaRetryAfter = "1"
	drainRetryAfter = "5"
)
