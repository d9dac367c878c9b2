package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"consumelocal/internal/joblog"
)

// durableServer boots an in-process daemon with a journal under a temp
// dir — the fault-injection and online-compaction tests don't need the
// real-binary SIGKILL harness, just the durability plumbing.
func durableServer(t *testing.T, compactBytes int64) (*server, *httptest.Server) {
	t.Helper()
	srv := newServer(0)
	srv.compactBytes = compactBytes
	if err := srv.openDurability(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.closeDurability)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestIngestFaultInjection drives the degrade-loudly contract end to
// end through HTTP: while the journal's fsync (or write) path is
// failing, a session batch must be refused with a 500 *before* it is
// acknowledged — the producer knows its rows are not durable — and the
// failure must be visible in journal_append_errors_total and the
// injected-fault counter. Clearing the fault restores normal 200s, and
// the journal that survives replays only the acknowledged rows.
func TestIngestFaultInjection(t *testing.T) {
	srv, ts := durableServer(t, 0)

	resp, v := postJob(t, ingestURL(ts.URL, "&name=faulty"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest job submission = %d, want 202", resp.StatusCode)
	}
	sessionsURL := fmt.Sprintf("%s/v1/jobs/%d/sessions", ts.URL, v.ID)

	// A clean batch first, so the stream has journalled state the faulty
	// batch must not disturb.
	sresp, out := postSessions(t, sessionsURL+"?watermark=3600", "text/csv", sessionRows(0, 10))
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("clean batch = %d (%v), want 200", sresp.StatusCode, out)
	}

	// Each faulty batch uses fresh rows: a 500 means *indeterminate* —
	// the rows may sit in the live stream unjournalled (they do here), so
	// the producer's recovery protocol is probe-and-skip, not blind
	// resend of the same rows.
	for _, fault := range []struct {
		kind  string
		start int64
		f     joblog.Faults
	}{
		{"write", 3600, joblog.Faults{WriteErr: func([]byte) error { return os.ErrClosed }}},
		{"fsync", 4000, joblog.Faults{SyncErr: func() error { return os.ErrClosed }}},
	} {
		srv.jl.InjectFaults(&fault.f)
		sresp, out = postSessions(t, sessionsURL, "text/csv", sessionRows(fault.start, 5))
		if sresp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("batch with injected %s failure = %d (%v), want 500", fault.kind, sresp.StatusCode, out)
		}
		exp := scrapeMetrics(t, ts.URL)
		if got, _ := exp.Value(fmt.Sprintf(`consumelocald_journal_injected_faults_total{kind=%q}`, fault.kind)); got != 1 {
			t.Fatalf("injected_faults_total{kind=%q} = %g, want 1", fault.kind, got)
		}
	}
	exp := scrapeMetrics(t, ts.URL)
	if got, _ := exp.Value("consumelocald_journal_append_errors_total"); got < 2 {
		t.Fatalf("journal_append_errors_total = %g, want >= 2", got)
	}

	// Service resumes once the faults clear.
	srv.jl.InjectFaults(nil)
	sresp, out = postSessions(t, sessionsURL+"?watermark=7200", "text/csv", sessionRows(5000, 5))
	if sresp.StatusCode != http.StatusOK || out["total_pushed"].(float64) != 25 {
		t.Fatalf("batch after clearing faults = %d %v, want 200 with 25 total", sresp.StatusCode, out)
	}

	// The journal on disk accounts exactly the acknowledged sessions.
	if _, err := http.Post(fmt.Sprintf("%s/v1/jobs/%d/finish", ts.URL, v.ID), "", nil); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, ts.URL, v.ID, "done")
}

// TestSettledStatusIsDurable: a job publishes its terminal status only
// once that status is durable. With every journal commit slowed to
// 200ms, a poller that sees "done" must already find the result stored
// and the finished record committed — a crash right after it must not
// take the status back.
func TestSettledStatusIsDurable(t *testing.T) {
	srv, ts := durableServer(t, 0)
	_, v := postJob(t, ingestURL(ts.URL, ""))
	url := fmt.Sprintf("%s/v1/jobs/%d/sessions?watermark=3600", ts.URL, v.ID)
	if resp, out := postSessions(t, url, "text/csv", sessionRows(0, 10)); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %d (%v), want 200", resp.StatusCode, out)
	}
	srv.jl.InjectFaults(&joblog.Faults{SyncErr: func() error {
		time.Sleep(200 * time.Millisecond)
		return nil
	}})
	resp, err := http.Post(fmt.Sprintf("%s/v1/jobs/%d/finish", ts.URL, v.ID), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitStatus(t, ts.URL, v.ID, "done")
	exp := scrapeMetrics(t, ts.URL)
	if got, _ := exp.Value(`consumelocald_journal_records_total{type="finished"}`); got != 1 {
		t.Fatalf("finished records committed when the job reads done = %g, want 1", got)
	}
	var stored storedResult
	if ok, err := srv.store.Get(v.ID, &stored); err != nil || !ok || stored.Status != "done" {
		t.Fatalf("stored result when the job reads done: found %v, status %q, err %v", ok, stored.Status, err)
	}
}

// TestOnlineCompaction exercises the background size-threshold pass
// while the daemon serves: a first ingest stream finishes (its batch
// records become foldable into the checkpoint), a second stream's
// pushes grow the journal past the threshold, and the compaction that
// fires must reclaim the finished stream's bytes, keep the counters
// honest, and leave a journal whose replay accounts every acknowledged
// session exactly — including the still-live second stream's tail (the
// checkpoint-subtraction invariant, live).
func TestOnlineCompaction(t *testing.T) {
	dir := t.TempDir()
	srv := newServer(0)
	// Past the first stream's ~20 KiB of batch records, so no pass fires
	// while everything journalled is still a live tail (nothing to
	// reclaim); the second stream's pushes cross the line.
	srv.compactBytes = 32 << 10
	if err := srv.openDurability(dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	// Stream A: push ~20 KiB of batches, then finish. Its payload stays
	// in the journal (a finished record clears only the replayed tail)
	// until a compaction folds it into the checkpoint.
	resp, a := postJob(t, ingestURL(ts.URL, "&name=finished-stream"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("stream A submission = %d, want 202", resp.StatusCode)
	}
	aTotal := 0
	for i := 0; i < 8; i++ {
		sresp, out := postSessions(t,
			fmt.Sprintf("%s/v1/jobs/%d/sessions?watermark=%d", ts.URL, a.ID, (int64(i)+1)*600),
			"text/csv", sessionRows(int64(i)*600, 100))
		if sresp.StatusCode != http.StatusOK {
			t.Fatalf("stream A batch %d = %d (%v), want 200", i, sresp.StatusCode, out)
		}
		aTotal += 100
	}
	if _, err := http.Post(fmt.Sprintf("%s/v1/jobs/%d/finish", ts.URL, a.ID), "", nil); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, ts.URL, a.ID, "done")

	// Stream B: keep pushing until the threshold trips the background
	// pass. Compaction keeps B's whole tail (it is live) but folds A's.
	resp, b := postJob(t, ingestURL(ts.URL, "&name=live-stream"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("stream B submission = %d, want 202", resp.StatusCode)
	}
	bTotal := 0
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; ; i++ {
		exp := scrapeMetrics(t, ts.URL)
		if n, _ := exp.Value("consumelocald_journal_compactions_total"); n >= 1 {
			if reclaimed, _ := exp.Value("consumelocald_journal_compaction_reclaimed_bytes_total"); reclaimed <= 0 {
				t.Fatalf("compaction ran but reclaimed %g bytes", reclaimed)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no online compaction within 30s")
		}
		sresp, out := postSessions(t,
			fmt.Sprintf("%s/v1/jobs/%d/sessions?watermark=%d", ts.URL, b.ID, (int64(i)+1)*600),
			"text/csv", sessionRows(int64(i)*600, 100))
		if sresp.StatusCode != http.StatusOK {
			t.Fatalf("stream B batch %d = %d (%v), want 200", i, sresp.StatusCode, out)
		}
		bTotal += 100
	}

	// The compacted journal still serves: B is running with every push
	// accounted. Snapshot the journal as a crash would leave it (a clean
	// drain journals B's cancellation, which is not what a kill -9
	// produces) and replay the copy.
	var mid jobView
	getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, b.ID), &mid)
	if mid.Status != "running" || mid.Pushed != int64(bTotal) {
		t.Fatalf("stream B mid-stream view = %+v, want running with %d pushed", mid, bTotal)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	crashDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(crashDir, "journal.log"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	srv.drainJobs(0)
	srv.closeDurability()

	jl, rec, err := joblog.Open(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	if rec.Sessions != int64(aTotal+bTotal) {
		t.Fatalf("compacted journal replays %d sessions, want %d", rec.Sessions, aTotal+bTotal)
	}
	if len(rec.Jobs) != 2 {
		t.Fatalf("compacted journal replays %d jobs, want 2", len(rec.Jobs))
	}
	if st := rec.Jobs[0]; st.ID != a.ID || st.Status != "done" || st.Sessions != int64(aTotal) {
		t.Fatalf("stream A after compaction: %+v", st)
	}
	st := rec.Jobs[1]
	if st.ID != b.ID || st.Status != "" || st.Sessions != int64(bTotal) || st.Created == nil || st.Created.Query == "" {
		t.Fatalf("stream B after compaction: %+v", st)
	}
	if len(st.Tail) == 0 {
		t.Fatal("live stream's batch tail lost by online compaction")
	}
}

// TestResumeLongTail: recovery re-feeds a resumed ingest job's
// journalled tail before the job's pump runs. A tail that settles more
// windows than the snapshot buffers hold must still re-feed in full —
// otherwise Push blocks and the listener never binds — and the resumed
// job must finish with /energy byte-identical to an uninterrupted run
// of the same stream.
func TestResumeLongTail(t *testing.T) {
	const batches, perBatch, window = 30, 500, 3600
	create := fmt.Sprintf("/v1/jobs?source=ingest&horizon=%d&users=1000&content=4&isps=2&window=%d",
		(batches+1)*window, window)
	push := func(base string, id int) {
		t.Helper()
		for b := 0; b < batches; b++ {
			url := fmt.Sprintf("%s/v1/jobs/%d/sessions?watermark=%d", base, id, (b+1)*window)
			if resp, out := postSessions(t, url, "text/csv", sessionRows(int64(b*window), perBatch)); resp.StatusCode != http.StatusOK {
				t.Fatalf("batch %d = %d (%v), want 200", b, resp.StatusCode, out)
			}
		}
	}
	finish := func(base string, id int) []byte {
		t.Helper()
		resp, err := http.Post(fmt.Sprintf("%s/v1/jobs/%d/finish", base, id), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		waitStatus(t, base, id, "done")
		return getBytes(t, fmt.Sprintf("%s/v1/jobs/%d/energy", base, id))
	}

	ref := httptest.NewServer(newServer(0).routes())
	defer ref.Close()
	_, v := postJob(t, ref.URL+create)
	push(ref.URL, v.ID)
	want := finish(ref.URL, v.ID)

	// The same stream into a durable daemon that dies before finish: the
	// journal is closed first, so the unwinding job records nothing more.
	dir := t.TempDir()
	first := newServer(0)
	if err := first.openDurability(dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(first.routes())
	_, v = postJob(t, ts.URL+create)
	push(ts.URL, v.ID)
	ts.Close()
	first.closeDurability()
	first.mu.Lock()
	first.jobs[v.ID].replay.Cancel()
	first.mu.Unlock()

	second := newServer(0)
	recovered := make(chan error, 1)
	go func() { recovered <- second.openDurability(dir) }()
	select {
	case err := <-recovered:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("recovery still re-feeding the journalled tail after 10s")
	}
	t.Cleanup(second.closeDurability)
	if second.recovered.Resumed != 1 {
		t.Fatalf("recovery = %+v, want one resumed job", second.recovered)
	}
	ts2 := httptest.NewServer(second.routes())
	defer ts2.Close()
	if got := finish(ts2.URL, v.ID); !bytes.Equal(got, want) {
		t.Fatalf("resumed /energy differs from the uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

// TestRecoverLegacyJournal restarts on a data dir written before the
// engine option was removed: created records and stored results carry
// an engine "mode", and the ingest job's journalled query still says
// engine=streaming. Both must recover — the finished job re-served, the
// ingest job resumed and finishing exactly like an uninterrupted run.
func TestRecoverLegacyJournal(t *testing.T) {
	const query = "source=ingest&horizon=14400&users=100&content=4&isps=2&window=3600"
	meta := map[string]any{"name": "evening", "epoch": "2013-09-01T00:00:00Z",
		"horizon_sec": 14400, "num_users": 100, "num_content": 4, "num_isps": 2}
	started := "2026-01-01T00:00:00Z"
	first, rest := sessionRows(0, 10), sessionRows(3600, 10)

	ref := httptest.NewServer(newServer(0).routes())
	defer ref.Close()
	_, v := postJob(t, ref.URL+"/v1/jobs?"+query)
	for _, b := range []struct {
		rows string
		wm   int
	}{{first, 3600}, {rest, 7200}} {
		url := fmt.Sprintf("%s/v1/jobs/%d/sessions?watermark=%d", ref.URL, v.ID, b.wm)
		if resp, out := postSessions(t, url, "text/csv", b.rows); resp.StatusCode != http.StatusOK {
			t.Fatalf("reference batch = %d (%v)", resp.StatusCode, out)
		}
	}
	if _, err := http.Post(fmt.Sprintf("%s/v1/jobs/%d/finish", ref.URL, v.ID), "", nil); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, ref.URL, v.ID, "done")
	want := getBytes(t, fmt.Sprintf("%s/v1/jobs/%d/energy", ref.URL, v.ID))

	dir := t.TempDir()
	var journal []byte
	for _, rec := range []map[string]any{
		{"type": "created", "job": 1, "name": "evening", "kind": "ingest", "mode": "streaming",
			"started": started, "meta": meta, "query": query + "&engine=streaming"},
		{"type": "batch", "job": 1, "sessions": 10, "watermark_sec": 3600, "csv": first},
		{"type": "created", "job": 2, "name": "gen", "kind": "generator", "mode": "parallel",
			"started": started, "meta": meta},
		{"type": "finished", "job": 2, "status": "done", "snapshots": 1},
	} {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
		journal = append(append(journal, hdr[:]...), payload...)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal.log"), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := joblog.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	total := map[string]any{"total_bits": 8e9, "server_bits": 6e9}
	if err := store.Put(2, map[string]any{"id": 2, "name": "gen", "kind": "generator", "mode": "parallel",
		"started": started, "meta": meta, "snapshots": 1,
		"snapshot": map[string]any{"index": 0, "final": true, "cumulative": total},
		"result":   map[string]any{"swarms": []any{}, "days": []any{}, "total": total, "policy": "locality-first"},
	}); err != nil {
		t.Fatal(err)
	}

	srv := newServer(0)
	if err := srv.openDurability(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.closeDurability)
	if srv.recovered.Resumed != 1 || srv.recovered.Restored != 1 {
		t.Fatalf("recovery = %+v, want one resumed and one restored job", srv.recovered)
	}
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()
	waitStatus(t, ts.URL, 2, "done")
	if body := getBytes(t, ts.URL+"/v1/jobs/2/energy"); !strings.Contains(string(body), `"total_bits":8000000000`) {
		t.Fatalf("restored job energy = %s", body)
	}
	url := fmt.Sprintf("%s/v1/jobs/1/sessions?watermark=7200", ts.URL)
	if resp, out := postSessions(t, url, "text/csv", rest); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch after resume = %d (%v)", resp.StatusCode, out)
	}
	if _, err := http.Post(ts.URL+"/v1/jobs/1/finish", "", nil); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, ts.URL, 1, "done")
	if got := getBytes(t, ts.URL+"/v1/jobs/1/energy"); !bytes.Equal(got, want) {
		t.Fatalf("resumed legacy job /energy differs:\n got %s\nwant %s", got, want)
	}
}
