package main

import (
	"context"
	"errors"
	"log/slog"
	"sync"
	"time"

	"consumelocal"
	"consumelocal/internal/engine"
	"consumelocal/internal/sim"
	"consumelocal/internal/trace"
)

// maxJobSnapshots caps the per-job snapshot history: beyond it the
// older half is dropped (followers that lag that far behind skip
// ahead), keeping a job's memory bounded even for window/horizon
// combinations that settle tens of thousands of windows.
const maxJobSnapshots = 4096

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
	// pushed and watermark are the producer-side progress of an ingest
	// job recovery settled, restored from the journal or the stored
	// document: such a job has no queue to report it (see progress).
	pushed, watermark int64

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
	// the lock order trivial.
	if j.kind == "ingest" {
		v.Ingest = true
		v.Pushed, v.Watermark = j.progress()
	}
	return v
}

// progress reports an ingest job's producer-side progress: the live
// queue's counters while the job has one, else the figures recovery
// restored — as of the last record the daemon committed for it.
func (j *job) progress() (pushed, watermark int64) {
	if j.ingest == nil {
		return j.pushed, j.watermark
	}
	return j.ingest.Pushed(), j.ingest.Watermark()
}

// pump waits for the replay to finish and settles the job's terminal
// status from its outcome. The snapshot history grows meanwhile: the job
// is the last sink of its own replay (see Snapshot).
func (j *job) pump() {
	res, err := j.replay.Result()

	j.mu.Lock()
	status, errMsg := "done", ""
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		status, errMsg = "cancelled", err.Error()
		if j.idleFired {
			errMsg = "ingest stream idle: the producer pushed nothing before the idle deadline; job cancelled"
		}
	default:
		status, errMsg = "failed", err.Error()
	}
	j.mu.Unlock()

	if j.idleTimer != nil {
		j.idleTimer.Stop()
	}
	if j.cleanup != nil {
		j.cleanup()
		j.cleanup = nil
	}
	// Persist the terminal state before publishing it, so no client sees
	// a status a crash could take back: a done job's full result document
	// first, then the journalled terminal record — the order that keeps
	// "journal says done" implying "the store can serve it".
	j.persistFinished(status, errMsg, res)

	j.mu.Lock()
	j.status, j.errMsg, j.result = status, errMsg, res
	// The interrupt closure pins the submitting request's connection
	// (ResponseController and buffers); drop it so a settled job in the
	// retained registry does not keep up to 32 dead connections alive.
	j.interrupt = nil
	j.broadcastLocked()
	j.mu.Unlock()

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

// Snapshot implements consumelocal.Sink: it appends one snapshot to the
// job's retained history and wakes its followers. It runs on the
// replay's collector goroutine, after every other sink, while the feed
// reads on.
func (j *job) Snapshot(snap engine.Snapshot) error {
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
	return nil
}

// Finish implements consumelocal.Sink; pump settles the job from the
// replay's Result instead.
func (j *job) Finish(*sim.Result, error) error { return nil }

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

// wait blocks until the job settles or ctx is done, reporting whether
// it settled.
func (j *job) wait(ctx context.Context) bool {
	for {
		j.mu.Lock()
		settled, changed := j.status != "running", j.changed
		j.mu.Unlock()
		if settled {
			return true
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return false
		}
	}
}

// cancel cancels a running job's replay. A sync replay may be blocked
// reading a stalled client's body, where cancellation is not observed,
// so the read is cut too and the quota slot is actually freed. A
// settled job — including every job recovery settled, which has no
// replay — is left as it is.
func (j *job) cancel() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != "running" {
		return
	}
	j.replay.Cancel()
	if j.interrupt != nil {
		j.interrupt()
	}
}
