package joblog

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"consumelocal/internal/trace"
)

func openT(t *testing.T, dir string) (*Journal, *Recovery) {
	t.Helper()
	j, rec, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j, rec
}

// TestJournalRoundTrip appends a realistic job lifecycle and checks the
// replay reduces it to the expected states and totals.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, rec := openT(t, dir)
	if len(rec.Jobs) != 0 || rec.TornTail || rec.MaxID != 0 {
		t.Fatalf("fresh journal recovered %+v", rec)
	}
	started := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	meta := trace.Meta{Name: "evening", HorizonSec: 3600, NumUsers: 10, NumContent: 3, NumISPs: 2}
	records := []Record{
		{Type: TypeCreated, Job: 1, Name: "evening", Kind: "ingest", Started: started, Meta: &meta},
		{Type: TypeBatch, Job: 1, Sessions: 100, WatermarkSec: 600},
		{Type: TypeBatch, Job: 1, Sessions: 50, WatermarkSec: 1200},
		{Type: TypeWatermark, Job: 1, WatermarkSec: 1800},
		{Type: TypeCreated, Job: 2, Name: "gen", Kind: "generator", Started: started},
		{Type: TypeFinished, Job: 2, Status: "done", Snapshots: 24},
	}
	for _, r := range records {
		if err := j.Append(r); err != nil {
			t.Fatalf("Append(%+v): %v", r, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, rec := openT(t, dir)
	defer j2.Close()
	if rec.TornTail {
		t.Fatal("clean journal reported a torn tail")
	}
	if rec.MaxID != 2 || rec.Sessions != 150 || rec.Batches != 2 {
		t.Fatalf("recovered MaxID=%d Sessions=%d Batches=%d, want 2/150/2", rec.MaxID, rec.Sessions, rec.Batches)
	}
	if len(rec.Jobs) != 2 {
		t.Fatalf("recovered %d jobs, want 2", len(rec.Jobs))
	}
	ing := rec.Jobs[0]
	if ing.ID != 1 || ing.Kind != "ingest" || ing.Sessions != 150 || ing.Watermark != 1800 || ing.Status != "" {
		t.Fatalf("ingest job state %+v", ing)
	}
	if !ing.Started.Equal(started) || ing.Meta != meta {
		t.Fatalf("ingest identity did not round-trip: %+v", ing)
	}
	done := rec.Jobs[1]
	if done.Status != "done" || done.Snapshots != 24 {
		t.Fatalf("finished job state %+v", done)
	}
}

// TestJournalTornTail corrupts the log's final record in several ways
// and checks replay keeps everything before it, reports the tear, and
// truncates so the next append produces a clean log again.
func TestJournalTornTail(t *testing.T) {
	for _, cut := range []struct {
		name string
		muck func(data []byte) []byte
	}{
		{"truncated payload", func(d []byte) []byte { return d[:len(d)-3] }},
		{"truncated header", func(d []byte) []byte { return d[:len(d)-21] }},
		{"flipped payload bit", func(d []byte) []byte { d[len(d)-2] ^= 0x40; return d }},
		{"garbage appended", func(d []byte) []byte { return append(d, 0xde, 0xad, 0xbe, 0xef) }},
	} {
		t.Run(cut.name, func(t *testing.T) {
			dir := t.TempDir()
			j, _ := openT(t, dir)
			if err := j.Append(Record{Type: TypeCreated, Job: 1, Kind: "ingest"}); err != nil {
				t.Fatal(err)
			}
			if err := j.Append(Record{Type: TypeBatch, Job: 1, Sessions: 10, WatermarkSec: 60}); err != nil {
				t.Fatal(err)
			}
			if err := j.Append(Record{Type: TypeBatch, Job: 1, Sessions: 20, WatermarkSec: 120}); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, journalName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, cut.muck(data), 0o644); err != nil {
				t.Fatal(err)
			}

			j2, rec := openT(t, dir)
			if !rec.TornTail {
				t.Fatal("corrupt tail not reported")
			}
			// The final batch is inside the damaged region for the cut
			// variants and beyond it for the append variant.
			if rec.Sessions != 10 && rec.Sessions != 30 {
				t.Fatalf("recovered %d sessions, want 10 (tail lost) or 30 (tail intact)", rec.Sessions)
			}
			if len(rec.Jobs) != 1 || rec.Jobs[0].ID != 1 {
				t.Fatalf("recovered jobs %+v", rec.Jobs)
			}
			// The truncation must leave a clean frame boundary: append a
			// record and replay again without a tear.
			if err := j2.Append(Record{Type: TypeFinished, Job: 1, Status: "failed", Error: "interrupted"}); err != nil {
				t.Fatalf("append after truncation: %v", err)
			}
			if err := j2.Close(); err != nil {
				t.Fatal(err)
			}
			j3, rec := openT(t, dir)
			defer j3.Close()
			if rec.TornTail {
				t.Fatal("journal still torn after truncation + append")
			}
			if rec.Jobs[0].Status != "failed" {
				t.Fatalf("appended terminal record lost: %+v", rec.Jobs[0])
			}
		})
	}
}

// TestJournalRewrite compacts a journal down to a checkpoint plus
// terminal records and checks totals and states survive — including
// across a second compaction, which is where a non-carried checkpoint
// would lose history.
func TestJournalRewrite(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir)
	if err := j.Append(Record{Type: TypeCreated, Job: 1, Kind: "ingest"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: TypeBatch, Job: 1, Sessions: 40, WatermarkSec: 60}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: TypeFinished, Job: 1, Status: "done", Snapshots: 3, Sessions: 40, WatermarkSec: 60}); err != nil {
		t.Fatal(err)
	}

	// First compaction: checkpoint carries the totals, job 1 keeps a
	// created+finished pair.
	err := j.Rewrite([]Record{
		{Type: TypeCheckpoint, Sessions: 40, Batches: 1},
		{Type: TypeCreated, Job: 1, Kind: "ingest"},
		{Type: TypeFinished, Job: 1, Status: "done", Snapshots: 3, Sessions: 40, WatermarkSec: 60},
	})
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	// The journal must stay appendable after a rewrite.
	if err := j.Append(Record{Type: TypeCreated, Job: 2, Kind: "generator"}); err != nil {
		t.Fatalf("append after rewrite: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rec := openT(t, dir)
	if rec.Sessions != 40 || rec.Batches != 1 {
		t.Fatalf("totals after compaction: Sessions=%d Batches=%d, want 40/1", rec.Sessions, rec.Batches)
	}
	if len(rec.Jobs) != 2 || rec.Jobs[0].Status != "done" || rec.Jobs[0].Sessions != 40 {
		t.Fatalf("states after compaction: %+v", rec.Jobs)
	}
	if rec.MaxID != 2 {
		t.Fatalf("MaxID after compaction = %d, want 2", rec.MaxID)
	}

	// Second compaction: the checkpoint must compose with the previous
	// one, not reset it.
	err = j2.Rewrite([]Record{{Type: TypeCheckpoint, Sessions: rec.Sessions, Batches: rec.Batches}})
	if err != nil {
		t.Fatalf("second Rewrite: %v", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, rec := openT(t, dir)
	defer j3.Close()
	if rec.Sessions != 40 || rec.Batches != 1 {
		t.Fatalf("totals after second compaction: Sessions=%d Batches=%d, want 40/1", rec.Sessions, rec.Batches)
	}
	if len(rec.Jobs) != 0 {
		t.Fatalf("jobs after drop-all compaction: %+v", rec.Jobs)
	}
}

// TestJournalEvicted checks an evicted job is forgotten by replay while
// the ID space is not reused.
func TestJournalEvicted(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir)
	if err := j.Append(Record{Type: TypeCreated, Job: 7, Kind: "trace"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: TypeFinished, Job: 7, Status: "done"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: TypeEvicted, Job: 7}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, rec := openT(t, dir)
	defer j2.Close()
	if len(rec.Jobs) != 0 {
		t.Fatalf("evicted job recovered: %+v", rec.Jobs)
	}
	if rec.MaxID != 7 {
		t.Fatalf("MaxID = %d, want 7 (evicted IDs are not reused)", rec.MaxID)
	}
}

// TestJournalAppendBatch checks the multi-record commit path: all
// frames land under one fsync and replay exactly as individual appends
// would.
func TestJournalAppendBatch(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir)
	fsyncs := 0
	j.OnFsync = func(float64) { fsyncs++ }
	var types []string
	j.OnAppend = func(rt string) { types = append(types, rt) }
	err := j.AppendBatch([]Record{
		{Type: TypeBatch, Job: 1, Sessions: 10, CSV: "0,0,0,0,5,600,1500\n"},
		{Type: TypeBatch, Job: 1, Sessions: 20, CSV: "1,1,1,1,9,600,1500\n", WatermarkSec: 600},
	})
	if err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if fsyncs != 1 {
		t.Fatalf("AppendBatch cost %d fsyncs, want 1", fsyncs)
	}
	if len(types) != 2 || types[0] != TypeBatch || types[1] != TypeBatch {
		t.Fatalf("observed types %v", types)
	}
	if j.Size() == 0 {
		t.Fatal("Size() = 0 after a committed batch")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, rec := openT(t, dir)
	defer j2.Close()
	if rec.Sessions != 30 || rec.Batches != 2 {
		t.Fatalf("replayed Sessions=%d Batches=%d, want 30/2", rec.Sessions, rec.Batches)
	}
	st := rec.Jobs[0]
	if st.Watermark != 600 || len(st.Tail) != 2 || st.Tail[0].CSV == "" {
		t.Fatalf("tail did not round-trip: %+v", st)
	}
}

// TestJournalCompactPreservesTail drives the online-compaction plan: a
// running ingest job's created record (with its resume query) and full
// batch tail must survive the rewrite, terminal jobs must reduce to
// pairs, and the checkpoint subtraction must keep the replayed totals
// exact — compacting twice must be a fixed point, not a double-count.
func TestJournalCompactPreservesTail(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir)
	appends := []Record{
		{Type: TypeCreated, Job: 1, Kind: "ingest", Query: "source=ingest&horizon=3600"},
		{Type: TypeBatch, Job: 1, Sessions: 10, CSV: "row-a", WatermarkSec: 600},
		{Type: TypeBatch, Job: 1, Sessions: 5, CSV: "row-b", WatermarkSec: 1200},
		{Type: TypeCreated, Job: 2, Kind: "generator"},
		{Type: TypeFinished, Job: 2, Status: "done", Snapshots: 4},
	}
	for _, r := range appends {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	sizeBefore := j.Size()
	for pass := 1; pass <= 2; pass++ {
		if _, err := j.Compact(CompactionPlan); err != nil {
			t.Fatalf("Compact pass %d: %v", pass, err)
		}
	}
	if j.Size() >= sizeBefore+sizeBefore {
		t.Fatalf("compaction grew the journal: %d -> %d", sizeBefore, j.Size())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, rec := openT(t, dir)
	defer j2.Close()
	if rec.Sessions != 15 || rec.Batches != 2 {
		t.Fatalf("totals after compaction: Sessions=%d Batches=%d, want 15/2 (checkpoint double-counted the tail?)", rec.Sessions, rec.Batches)
	}
	if len(rec.Jobs) != 2 {
		t.Fatalf("jobs after compaction: %+v", rec.Jobs)
	}
	ing := rec.Jobs[0]
	if ing.Status != "" || ing.Sessions != 15 || ing.Watermark != 1200 {
		t.Fatalf("running job after compaction: %+v", ing)
	}
	if ing.Created == nil || ing.Created.Query != "source=ingest&horizon=3600" {
		t.Fatalf("resume query lost in compaction: %+v", ing.Created)
	}
	if len(ing.Tail) != 2 || ing.Tail[0].CSV != "row-a" || ing.Tail[1].CSV != "row-b" {
		t.Fatalf("batch tail lost in compaction: %+v", ing.Tail)
	}
	if rec.Jobs[1].Status != "done" || rec.Jobs[1].Snapshots != 4 {
		t.Fatalf("terminal job after compaction: %+v", rec.Jobs[1])
	}
}

// TestJournalFaults exercises the injection seam: failed writes and
// fsyncs surface as append errors (the daemon's 500-before-ack path),
// a mangled frame is caught by the CRC on the next replay as a torn
// tail, and clearing the faults restores normal service.
func TestJournalFaults(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir)
	var kinds []string
	j.OnFault = func(kind string) { kinds = append(kinds, kind) }

	j.InjectFaults(&Faults{WriteErr: func([]byte) error { return os.ErrClosed }})
	if err := j.Append(Record{Type: TypeBatch, Job: 1, Sessions: 1}); err == nil {
		t.Fatal("append with injected write failure succeeded")
	}
	j.InjectFaults(&Faults{SyncErr: func() error { return os.ErrClosed }})
	if err := j.Append(Record{Type: TypeBatch, Job: 1, Sessions: 1}); err == nil {
		t.Fatal("append with injected fsync failure succeeded")
	}
	j.InjectFaults(nil)
	if err := j.Append(Record{Type: TypeBatch, Job: 1, Sessions: 2, WatermarkSec: 60}); err != nil {
		t.Fatalf("append after clearing faults: %v", err)
	}
	j.InjectFaults(&Faults{MangleFrame: func(frame []byte) []byte {
		mangled := append([]byte(nil), frame...)
		mangled[len(mangled)-1] ^= 0x20
		return mangled
	}})
	if err := j.Append(Record{Type: TypeBatch, Job: 1, Sessions: 100}); err != nil {
		t.Fatalf("mangled append should commit (the corruption is silent until replay): %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"write", "fsync", "mangle"}; len(kinds) != 3 || kinds[0] != want[0] || kinds[1] != want[1] || kinds[2] != want[2] {
		t.Fatalf("fault kinds = %v, want %v", kinds, want)
	}

	j2, rec := openT(t, dir)
	defer j2.Close()
	if !rec.TornTail {
		t.Fatal("mangled frame not detected as a torn tail")
	}
	// The failed-write record never landed; the fsync-failure record may
	// or may not be durable (here the write happened, so it is); the
	// mangled record must be gone.
	if rec.Sessions != 3 {
		t.Fatalf("recovered %d sessions, want 3 (clean append + written-but-unsynced)", rec.Sessions)
	}
}

// TestJournalFailedReopenAcksNothingLost fails the reopen that follows a
// compaction's rename. The rename has unlinked the file the journal was
// appending to, so an append acked into that file would vanish at
// restart. While the reopen keeps failing no append may be acked; once
// it succeeds, appends land in the live log. Every acked record must
// replay.
func TestJournalFailedReopenAcksNothingLost(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir)
	defer j.Close()
	var kinds []string
	j.OnFault = func(kind string) { kinds = append(kinds, kind) }
	var acked int64
	appendBatch := func(sessions int64) error {
		err := j.Append(Record{Type: TypeBatch, Job: 1, Sessions: sessions})
		if err == nil {
			acked += sessions
		}
		return err
	}
	recovered := func() *Recovery {
		t.Helper()
		j2, rec := openT(t, dir)
		j2.Close()
		return rec
	}

	if err := j.Append(Record{Type: TypeCreated, Job: 1, Kind: "ingest"}); err != nil {
		t.Fatal(err)
	}
	if err := appendBatch(5); err != nil {
		t.Fatal(err)
	}
	j.InjectFaults(&Faults{ReopenErr: func() error { return syscall.EMFILE }})
	if _, err := j.Compact(CompactionPlan); !errors.Is(err, syscall.EMFILE) {
		t.Fatalf("Compact with a failing reopen = %v, want EMFILE", err)
	}
	if err := appendBatch(7); err == nil {
		t.Error("append after a failed reopen was acked")
	}
	if rec := recovered(); rec.Sessions != acked {
		t.Fatalf("recovered %d sessions, want the %d acked", rec.Sessions, acked)
	}

	j.InjectFaults(nil)
	if err := appendBatch(11); err != nil {
		t.Fatalf("append once the reopen succeeds: %v", err)
	}
	if rec := recovered(); rec.Sessions != acked || acked != 16 {
		t.Fatalf("recovered %d sessions, acked %d, want 16 each", rec.Sessions, acked)
	}
	if len(kinds) == 0 || kinds[0] != "reopen" {
		t.Fatalf("fault kinds = %v, want reopen", kinds)
	}
}

// FuzzJournalReplay asserts the replay scanner's crash-safety contract
// over arbitrary corruption: for any input — random truncations, bit
// flips, garbage — replay must terminate without panicking, report a
// truncation point no further than the input, and reduce the retained
// prefix to exactly the same state a clean replay of that prefix
// yields (truncate-and-continue never silently mis-replays).
func FuzzJournalReplay(f *testing.F) {
	dir := f.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	seed := []Record{
		{Type: TypeCreated, Job: 1, Kind: "ingest", Query: "source=ingest&horizon=3600&users=10&content=3&isps=2"},
		{Type: TypeBatch, Job: 1, Sessions: 3, CSV: "0,0,0,0,5,600,1500\n1,1,1,1,9,600,1500\n2,2,0,2,14,600,1500\n", WatermarkSec: 600},
		{Type: TypeWatermark, Job: 1, WatermarkSec: 1200},
		{Type: TypeCheckpoint, Sessions: 40, Batches: 2},
		{Type: TypeCreated, Job: 2, Kind: "generator"},
		{Type: TypeFinished, Job: 2, Status: "done", Snapshots: 7},
	}
	for _, r := range seed {
		if err := j.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	clean, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-5])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	flipped := append([]byte(nil), clean...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, good := replay(data)
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("truncation point %d outside [0, %d]", good, len(data))
		}
		if rec.Sessions < 0 || rec.Batches < 0 || rec.Records < 0 {
			t.Fatalf("negative totals from replay: %+v", rec)
		}
		// Re-replaying the accepted prefix must be clean and identical:
		// the truncate-and-continue contract.
		rec2, good2 := replay(data[:good])
		if good2 != good {
			t.Fatalf("prefix replay truncated again: %d then %d", good, good2)
		}
		if rec2.MaxID != rec.MaxID || rec2.Sessions != rec.Sessions ||
			rec2.Batches != rec.Batches || rec2.Records != rec.Records ||
			len(rec2.Jobs) != len(rec.Jobs) {
			t.Fatalf("prefix replay diverged: %+v vs %+v", rec, rec2)
		}
		for i := range rec.Jobs {
			a, b := rec.Jobs[i], rec2.Jobs[i]
			if a.ID != b.ID || a.Status != b.Status || a.Sessions != b.Sessions ||
				a.Watermark != b.Watermark || len(a.Tail) != len(b.Tail) {
				t.Fatalf("prefix replay job %d diverged: %+v vs %+v", i, a, b)
			}
		}
	})
}

// TestStoreRoundTrip exercises Put/Get/Delete/IDs on the result store.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	type doc struct {
		ID    int     `json:"id"`
		Value float64 `json:"value"`
	}
	if err := s.Put(3, doc{ID: 3, Value: 0.1 + 0.2}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put(11, doc{ID: 11, Value: 1}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	var got doc
	ok, err := s.Get(3, &got)
	if err != nil || !ok {
		t.Fatalf("Get(3) = %v, %v", ok, err)
	}
	if got.Value != 0.1+0.2 {
		t.Fatalf("float did not round-trip exactly: %v", got.Value)
	}
	if ok, err := s.Get(99, &got); err != nil || ok {
		t.Fatalf("Get(99) = %v, %v, want absent", ok, err)
	}
	ids, err := s.IDs()
	if err != nil {
		t.Fatalf("IDs: %v", err)
	}
	if len(ids) != 2 || ids[0] != 3 || ids[1] != 11 {
		t.Fatalf("IDs = %v, want [3 11]", ids)
	}
	if err := s.Delete(3); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := s.Delete(3); err != nil {
		t.Fatalf("Delete (absent): %v", err)
	}
	if ok, _ := s.Get(3, &got); ok {
		t.Fatal("deleted result still served")
	}
}
