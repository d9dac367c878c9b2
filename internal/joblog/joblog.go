// Package joblog is consumelocald's durability layer: an append-only,
// fsync-on-commit job journal plus a completed-result store, both
// rooted in one data directory (the daemon's -data-dir).
//
// The journal records every job state transition — created, ingest
// batch accepted, watermark advanced, finished, evicted — as a
// CRC-framed JSON record, fsynced before the daemon acknowledges the
// transition to a client. On restart, Open replays the log into
// per-job states: finished jobs are re-served from the result store,
// an ingest job that was running when the daemon died keeps its
// creation query and batch tail so the stream can resume, other
// running jobs are deterministically reported as interrupted, and the
// monotonic ingest counters are restored so a client-versus-server
// session ledger survives the bounce. A torn final record — the expected artifact of dying
// mid-write — is detected by its framing and truncated away; everything
// before it replays.
//
// Checkpoint records carry aggregate totals across compactions: the
// daemon rewrites the journal at startup and online down to one
// checkpoint plus the retained jobs' created and terminal records and
// the live streams' batch tails (CompactionPlan), so the file's size
// is bounded by the retention window, not by uptime.
package joblog

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"consumelocal/internal/trace"
)

// Record types, one per journalled transition.
const (
	// TypeCreated records a job's admission: identity, kind and stream
	// metadata — everything a restarted daemon needs to rebuild the
	// registry entry. Journals from older daemons also carry an engine
	// "mode", which replay ignores.
	TypeCreated = "created"
	// TypeBatch records an accepted ingest batch (and the watermark it
	// advanced to, when it carried one). Appended — and fsynced —
	// before the push is acknowledged, so "the daemon said 200" implies
	// "the sessions are in the journal".
	TypeBatch = "batch"
	// TypeWatermark records a watermark advance that carried no
	// sessions.
	TypeWatermark = "watermark"
	// TypeFinished records a job's terminal status (done, failed or
	// cancelled) with its final progress counters.
	TypeFinished = "finished"
	// TypeEvicted records that the daemon dropped a finished job from
	// its retention window; replay forgets the job entirely.
	TypeEvicted = "evicted"
	// TypeCheckpoint carries aggregate totals (sessions and batches
	// accepted, ever) across compactions, so restored counters stay
	// monotonic over any number of restarts.
	TypeCheckpoint = "checkpoint"
)

// Record is one journal entry. Fields beyond Type and Job are
// populated per type; JSON keeps the framing self-describing so old
// journals replay under newer binaries.
type Record struct {
	Type string `json:"type"`
	Job  int    `json:"job,omitempty"`

	// created (and compacted terminal records). Query is the job's
	// original submission query string, journalled for ingest jobs so a
	// restarted daemon can rebuild the exact replay configuration and
	// resume the stream; a created record without one is not resumable.
	Name    string      `json:"name,omitempty"`
	Kind    string      `json:"kind,omitempty"`
	Started time.Time   `json:"started,omitzero"`
	Meta    *trace.Meta `json:"meta,omitempty"`
	Query   string      `json:"query,omitempty"`

	// batch / checkpoint accounting. CSV carries the accepted sessions
	// themselves (bare interchange rows, chunked under the frame cap) —
	// the payload a restarted daemon re-feeds to resume the stream.
	Sessions     int64  `json:"sessions,omitempty"`
	Batches      int64  `json:"batches,omitempty"`
	WatermarkSec int64  `json:"watermark_sec,omitempty"`
	CSV          string `json:"csv,omitempty"`

	// finished.
	Status    string `json:"status,omitempty"`
	Error     string `json:"error,omitempty"`
	Snapshots int    `json:"snapshots,omitempty"`
}

// Frame layout: 4-byte little-endian payload length, 4-byte CRC32
// (IEEE) of the payload, then the JSON payload. The CRC pins torn or
// bit-rotted tails; the length bounds the scan.
const frameHeader = 8

// maxRecordBytes bounds one record. Real records are a few hundred
// bytes; the cap keeps a corrupted length field from convincing the
// replay scanner to allocate gigabytes.
const maxRecordBytes = 1 << 20

// journalName is the log's filename inside the data directory.
const journalName = "journal.log"

// JobState is one job's reduction of the journal: everything known
// about it at the moment the daemon last committed a record.
type JobState struct {
	ID      int
	Name    string
	Kind    string
	Started time.Time
	Meta    trace.Meta

	// Sessions and Watermark are the job's producer-side progress
	// (batch records summed, terminal record trusted when larger).
	Sessions  int64
	Watermark int64

	// Status is the terminal status, or "" for a job with no finished
	// record — one that was still running when the daemon died.
	Status    string
	Error     string
	Snapshots int

	// Created is the job's created record as journalled (nil when the
	// job's history was compacted into a terminal record). For an
	// in-flight ingest job it carries the Query needed to resume.
	Created *Record
	// Tail holds the job's batch and watermark records, in journal
	// order, while the job has no terminal record — the payload replayed
	// to resume the stream. Cleared when the job finishes; compaction
	// preserves it for running jobs.
	Tail []Record
}

// Recovery is what replaying the journal yields.
type Recovery struct {
	// Jobs are the surviving per-job states in ascending ID order
	// (evicted jobs are forgotten).
	Jobs []*JobState
	// MaxID is the highest job ID any record ever named, evicted or
	// not — the restarted daemon resumes numbering above it.
	MaxID int
	// TornTail reports that the log ended in a torn or corrupt record,
	// which Open truncated away.
	TornTail bool
	// Sessions and Batches are the aggregate accepted totals, ever —
	// checkpoint carry-over plus replayed batch records. They restore
	// the daemon's monotonic ingest counters.
	Sessions int64
	Batches  int64
	// Records counts the entries replayed (excluding checkpoints).
	Records int
}

// Faults injects failures into the journal's write path, modelling the
// disk letting the daemon down: a full disk or I/O error on write, an
// fsync that fails after the bytes were handed to the kernel (written
// but not durable), or a frame corrupted on its way to the platter.
// Each hook is consulted per append while installed; a nil hook (or a
// hook returning the zero value) injects nothing.
type Faults struct {
	// WriteErr, when non-nil and returning an error for the framed
	// bytes about to be written, fails the append before any byte
	// reaches the file — the disk-full / EIO case.
	WriteErr func(frame []byte) error
	// SyncErr, when non-nil and returning an error, fails the commit
	// fsync after the write — the record may or may not be durable, and
	// the daemon must answer the client accordingly (500 before ack).
	SyncErr func() error
	// MangleFrame, when non-nil and returning a non-nil slice, replaces
	// the framed bytes actually written — the torn/corrupt-frame case,
	// observed as a CRC reject or torn tail on the next replay.
	MangleFrame func(frame []byte) []byte
	// ReopenErr, when non-nil and returning an error, fails the open of
	// the log a compaction has just renamed into place — the EMFILE
	// case. Unlike the other hooks it is consulted per reopen, not per
	// append.
	ReopenErr func() error
}

// Journal is the append-only log. Append is safe for concurrent use;
// the observer hooks are set once, before the first Append.
type Journal struct {
	// OnFsync, when set, observes each commit fsync's latency in
	// seconds — the daemon wires its journal-fsync histogram here.
	OnFsync func(seconds float64)
	// OnAppend, when set, observes each committed record's type.
	OnAppend func(recordType string)
	// OnFault, when set, observes each injected fault by kind
	// ("write", "fsync", "mangle", "reopen").
	OnFault func(kind string)

	mu   sync.Mutex
	dir  string
	path string
	// f is the open log at path: nil once closed, and nil while reopen
	// is set.
	f *os.File
	// reopen is set when a compaction renamed its new log into place but
	// could not open it. The rename unlinked the file f held, so f was
	// closed: an append into it would be acked and then lost at
	// restart. The next append or compaction opens path first.
	reopen bool
	buf    []byte
	size   int64
	faults *Faults
}

// Open opens (creating if needed) the journal under dir and replays
// it. A torn tail is truncated — with an fsync — so the next append
// lands on a clean frame boundary; any other I/O failure is returned.
func Open(dir string) (*Journal, *Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("joblog: data dir: %w", err)
	}
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("joblog: open journal: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("joblog: read journal: %w", err)
	}

	rec, good := replay(data)
	if good < int64(len(data)) {
		rec.TornTail = true
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("joblog: truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("joblog: sync truncated journal: %w", err)
		}
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("joblog: seek journal end: %w", err)
	}
	return &Journal{dir: dir, path: path, f: f, size: good}, rec, nil
}

// InjectFaults installs (or, with nil, removes) the fault-injection
// hooks. Testing seam only; takes effect from the next append.
func (j *Journal) InjectFaults(f *Faults) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.faults = f
}

// Size reports the journal file's current length in bytes — the online
// compaction trigger reads this after each append.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// replay scans frames from data, reducing them into a Recovery. It
// returns the byte offset of the first frame that does not decode —
// the truncation point — which is len(data) for a clean log.
func replay(data []byte) (*Recovery, int64) {
	states := make(map[int]*JobState)
	rec := &Recovery{}
	off := 0
	for off < len(data) {
		if len(data)-off < frameHeader {
			break
		}
		n := binary.LittleEndian.Uint32(data[off:])
		if n == 0 || n > maxRecordBytes || int(n) > len(data)-off-frameHeader {
			break
		}
		sum := binary.LittleEndian.Uint32(data[off+4:])
		payload := data[off+frameHeader : off+frameHeader+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil {
			// The frame is intact but unintelligible — treat it like a
			// torn tail rather than guessing at the records behind it.
			break
		}
		rec.apply(states, &r)
		off += frameHeader + int(n)
	}

	ids := make([]int, 0, len(states))
	for id := range states {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		rec.Jobs = append(rec.Jobs, states[id])
	}
	return rec, int64(off)
}

// apply folds one record into the replay state.
func (rec *Recovery) apply(states map[int]*JobState, r *Record) {
	if r.Job > rec.MaxID {
		rec.MaxID = r.Job
	}
	ensure := func() *JobState {
		st := states[r.Job]
		if st == nil {
			st = &JobState{ID: r.Job}
			states[r.Job] = st
		}
		return st
	}
	switch r.Type {
	case TypeCreated:
		st := ensure()
		st.Name, st.Kind, st.Started = r.Name, r.Kind, r.Started
		if r.Meta != nil {
			st.Meta = *r.Meta
		}
		// replay allocates a fresh Record per frame, so retaining the
		// pointer is safe.
		st.Created = r
	case TypeBatch:
		st := ensure()
		st.Sessions += r.Sessions
		if r.WatermarkSec > st.Watermark {
			st.Watermark = r.WatermarkSec
		}
		rec.Sessions += r.Sessions
		rec.Batches++
		if st.Status == "" {
			st.Tail = append(st.Tail, *r)
		}
	case TypeWatermark:
		st := ensure()
		if r.WatermarkSec > st.Watermark {
			st.Watermark = r.WatermarkSec
		}
		if st.Status == "" {
			st.Tail = append(st.Tail, *r)
		}
	case TypeFinished:
		st := ensure()
		st.Status, st.Error, st.Snapshots = r.Status, r.Error, r.Snapshots
		st.Tail = nil
		if r.Sessions > st.Sessions {
			st.Sessions = r.Sessions
		}
		if r.WatermarkSec > st.Watermark {
			st.Watermark = r.WatermarkSec
		}
		// Compacted terminal records carry the created fields too.
		if r.Name != "" && st.Name == "" {
			st.Name = r.Name
		}
	case TypeEvicted:
		delete(states, r.Job)
	case TypeCheckpoint:
		rec.Sessions += r.Sessions
		rec.Batches += r.Batches
	}
	if r.Type != TypeCheckpoint {
		rec.Records++
	}
}

// frame appends the framed encoding of r to buf.
func frame(buf []byte, r Record) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return buf, fmt.Errorf("joblog: encode record: %w", err)
	}
	if len(payload) > maxRecordBytes {
		return buf, fmt.Errorf("joblog: record of %d bytes exceeds the %d frame cap", len(payload), maxRecordBytes)
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	return append(append(buf, hdr[:]...), payload...), nil
}

// Append commits one record: framed, written, fsynced. It returns only
// once the record is durable — callers acknowledge the transition to
// their client after Append, never before.
func (j *Journal) Append(r Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(r)
}

// AppendBatch commits several records as one write and one fsync — the
// chunked-batch path, where a single ingest ack may span multiple
// frames but must cost a single commit.
func (j *Journal) AppendBatch(recs []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(recs...)
}

func (j *Journal) appendLocked(recs ...Record) error {
	if err := j.liveLocked("append"); err != nil {
		return err
	}
	buf := j.buf[:0]
	var err error
	for _, r := range recs {
		if buf, err = frame(buf, r); err != nil {
			j.buf = buf[:0]
			return err
		}
	}
	j.buf = buf[:0]
	if f := j.faults; f != nil {
		if f.WriteErr != nil {
			if werr := f.WriteErr(buf); werr != nil {
				j.fault("write")
				return fmt.Errorf("joblog: append: %w", werr)
			}
		}
		if f.MangleFrame != nil {
			if m := f.MangleFrame(buf); m != nil {
				j.fault("mangle")
				buf = m
			}
		}
	}
	n, err := j.f.Write(buf)
	j.size += int64(n)
	if err != nil {
		return fmt.Errorf("joblog: append: %w", err)
	}
	if f := j.faults; f != nil && f.SyncErr != nil {
		if serr := f.SyncErr(); serr != nil {
			j.fault("fsync")
			return fmt.Errorf("joblog: fsync: %w", serr)
		}
	}
	t0 := time.Now()
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("joblog: fsync: %w", err)
	}
	if j.OnFsync != nil {
		j.OnFsync(time.Since(t0).Seconds())
	}
	if j.OnAppend != nil {
		for _, r := range recs {
			j.OnAppend(r.Type)
		}
	}
	return nil
}

func (j *Journal) fault(kind string) {
	if j.OnFault != nil {
		j.OnFault(kind)
	}
}

// Rewrite atomically replaces the journal's contents with recs — the
// compaction primitive. The new log is written beside the old one,
// fsynced, and renamed into place (with a directory fsync), so a crash
// at any point leaves either the old journal or the new one, never a
// blend.
func (j *Journal) Rewrite(recs []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rewriteLocked(recs)
}

// Compact compacts the journal online: under the append lock it
// re-reads and replays the current log, asks build for the replacement
// records, and atomically rewrites the file. Appends block for the
// duration, which the size threshold that triggers compaction keeps
// bounded. It returns the bytes reclaimed (old size minus new).
func (j *Journal) Compact(build func(*Recovery) []Record) (int64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.liveLocked("compact"); err != nil {
		return 0, err
	}
	data, err := os.ReadFile(j.path)
	if err != nil {
		return 0, fmt.Errorf("joblog: compact read: %w", err)
	}
	rec, good := replay(data)
	_ = good // a torn tail cannot exist mid-serve; replay is defensive anyway
	before := j.size
	if err := j.rewriteLocked(build(rec)); err != nil {
		return 0, err
	}
	return before - j.size, nil
}

// CompactionPlan is the canonical build function for Compact (the
// daemon also uses it for the startup rewrite): one checkpoint carrying
// the aggregate totals, each terminal job reduced to a created/finished
// pair, and each still-running job's created record plus its full batch
// tail — so an in-flight ingest stream stays resumable across any
// number of compactions. The sessions and batches that remain as live
// tail records are subtracted from the checkpoint, keeping the next
// replay's totals exact instead of double-counted.
func CompactionPlan(rec *Recovery) []Record {
	ckpt := Record{Type: TypeCheckpoint, Sessions: rec.Sessions, Batches: rec.Batches}
	recs := make([]Record, 0, 1+2*len(rec.Jobs))
	recs = append(recs, ckpt)
	for _, st := range rec.Jobs {
		created := st.Created
		if created == nil {
			created = &Record{
				Type: TypeCreated, Job: st.ID,
				Name: st.Name, Kind: st.Kind, Started: st.Started,
			}
		}
		recs = append(recs, *created)
		if st.Status == "" {
			for _, t := range st.Tail {
				if t.Type == TypeBatch {
					recs[0].Sessions -= t.Sessions
					recs[0].Batches--
				}
				recs = append(recs, t)
			}
			continue
		}
		recs = append(recs, Record{
			Type: TypeFinished, Job: st.ID,
			Status: st.Status, Error: st.Error, Snapshots: st.Snapshots,
			Sessions: st.Sessions, WatermarkSec: st.Watermark, Name: st.Name,
		})
	}
	return recs
}

func (j *Journal) rewriteLocked(recs []Record) error {
	tmp, err := os.CreateTemp(j.dir, journalName+".tmp-*")
	if err != nil {
		return fmt.Errorf("joblog: rewrite: %w", err)
	}
	defer os.Remove(tmp.Name())
	var buf []byte
	for _, r := range recs {
		if buf, err = frame(buf, r); err != nil {
			tmp.Close()
			return err
		}
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("joblog: rewrite: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("joblog: rewrite sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("joblog: rewrite close: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		return fmt.Errorf("joblog: rewrite rename: %w", err)
	}
	syncDir(j.dir)
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
	j.reopen = true
	return j.reopenLocked()
}

// liveLocked readies j.f for op: it opens the log a failed reopen left
// unopened, and fails once the journal is closed.
func (j *Journal) liveLocked(op string) error {
	if j.reopen {
		return j.reopenLocked()
	}
	if j.f == nil {
		return fmt.Errorf("joblog: %s: journal closed", op)
	}
	return nil
}

// reopenLocked opens the log at j.path for appending, after a rewrite
// renamed it into place.
func (j *Journal) reopenLocked() error {
	if f := j.faults; f != nil && f.ReopenErr != nil {
		if err := f.ReopenErr(); err != nil {
			j.fault("reopen")
			return fmt.Errorf("joblog: reopen journal: %w", err)
		}
	}
	f, err := os.OpenFile(j.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("joblog: reopen journal: %w", err)
	}
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return fmt.Errorf("joblog: seek journal end: %w", err)
	}
	j.f, j.size, j.reopen = f, end, false
	return nil
}

// Close syncs and closes the log. Appends after Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.reopen = false
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// syncDir fsyncs a directory so a rename within it is durable.
// Best-effort: some filesystems refuse directory fsyncs, and the
// rename itself already ordered the data writes.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
