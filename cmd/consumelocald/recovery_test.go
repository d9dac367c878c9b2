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

	"consumelocal/internal/joblog"
)

// writeJournal hand-writes a journal of CRC-framed records under dir,
// the on-disk form a crashed daemon leaves behind.
func writeJournal(t *testing.T, dir string, recs []map[string]any) {
	t.Helper()
	var journal []byte
	for _, rec := range recs {
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
}

// recoverServer boots an in-process daemon over an existing data dir.
func recoverServer(t *testing.T, dir string) (*server, *httptest.Server) {
	t.Helper()
	srv := newServer(0)
	if err := srv.openDurability(dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	return srv, ts
}

// outcomeJournal writes a data dir holding one job per recovery
// outcome, keyed by job ID:
//
//	1 restored       generator job, done, with its stored document
//	2 carried        trace job, failed
//	3 carried        ingest job, cancelled after 10 sessions, watermark 3600
//	4 interrupted    generator job with no terminal record
//	5 dropped        ingest job, done, but the result store has no document
//	6 resume_failed  ingest job whose batch record carries no payload
func outcomeJournal(t *testing.T) string {
	t.Helper()
	const query = "source=ingest&horizon=14400&users=100&content=4&isps=2&window=3600"
	meta := map[string]any{"name": "evening", "epoch": "2013-09-01T00:00:00Z",
		"horizon_sec": 14400, "num_users": 100, "num_content": 4, "num_isps": 2}
	started := "2026-01-01T00:00:00Z"
	created := func(id int, name, kind, q string) map[string]any {
		return map[string]any{"type": "created", "job": id, "name": name, "kind": kind,
			"started": started, "meta": meta, "query": q}
	}
	dir := t.TempDir()
	writeJournal(t, dir, []map[string]any{
		created(1, "gen", "generator", ""),
		{"type": "finished", "job": 1, "status": "done", "snapshots": 3},
		created(2, "upload", "trace", ""),
		{"type": "finished", "job": 2, "status": "failed", "error": "boom", "snapshots": 2},
		created(3, "evening", "ingest", query),
		{"type": "batch", "job": 3, "sessions": 10, "watermark_sec": 3600, "csv": sessionRows(0, 10)},
		{"type": "finished", "job": 3, "status": "cancelled", "error": "context canceled",
			"snapshots": 1, "sessions": 10, "watermark_sec": 3600},
		created(4, "gen", "generator", ""),
		created(5, "evening", "ingest", query),
		{"type": "batch", "job": 5, "sessions": 4, "watermark_sec": 1800, "csv": sessionRows(0, 4)},
		{"type": "finished", "job": 5, "status": "done", "snapshots": 4, "sessions": 4, "watermark_sec": 1800},
		created(6, "evening", "ingest", query),
		{"type": "batch", "job": 6, "sessions": 5, "watermark_sec": 3600},
	})
	store, err := joblog.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	total := map[string]any{"total_bits": 8e9, "server_bits": 6e9}
	if err := store.Put(1, map[string]any{"id": 1, "name": "gen", "kind": "generator",
		"started": started, "meta": meta, "snapshots": 3,
		"snapshot": map[string]any{"index": 2, "final": true, "cumulative": total},
		"result":   map[string]any{"swarms": []any{}, "days": []any{}, "total": total, "policy": "locality-first"},
	}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRecoveryOutcomeViews pins what every recovery outcome serves: the
// /healthz counts and, per job, the status, error, ingest progress and
// snapshot count of GET /v1/jobs/{id}. A second restart on the compacted
// journal must re-serve every view byte for byte, with the one restored
// job restored again and every other settled job carried.
func TestRecoveryOutcomeViews(t *testing.T) {
	dir := outcomeJournal(t)
	want := map[int]jobView{
		1: {Status: "done", Snapshots: 3},
		2: {Status: "failed", Error: "boom", Snapshots: 2},
		3: {Status: "cancelled", Error: "context canceled", Snapshots: 1, Ingest: true, Pushed: 10, Watermark: 3600},
		4: {Status: "failed", Error: errInterrupted},
		5: {Status: "failed", Error: "result lost", Ingest: true, Pushed: 4, Watermark: 1800},
		6: {Status: "failed", Error: errInterrupted, Ingest: true, Pushed: 5, Watermark: 3600},
	}

	srv, ts := recoverServer(t, dir)
	h := getHealthz(t, ts.URL)
	if got := *h.Recovery; got != (healthzRecovery{Restored: 1, Carried: 2, Interrupted: 1, Dropped: 1, ResumeFailed: 1}) {
		t.Fatalf("first restart recovery = %+v", got)
	}
	first := make(map[int][]byte)
	for id, w := range want {
		body := getBytes(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id))
		var v jobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.Status != w.Status || !strings.HasPrefix(v.Error, w.Error) || (w.Error == "") != (v.Error == "") ||
			v.Ingest != w.Ingest || v.Pushed != w.Pushed || v.Watermark != w.Watermark || v.Snapshots != w.Snapshots {
			t.Errorf("job %d view = %s, want status %q, error %q, ingest %v, pushed %d, watermark %d, snapshots %d",
				id, body, w.Status, w.Error, w.Ingest, w.Pushed, w.Watermark, w.Snapshots)
		}
		first[id] = body
	}
	ts.Close()
	srv.closeDurability()

	srv, ts = recoverServer(t, dir)
	defer srv.closeDurability()
	defer ts.Close()
	h = getHealthz(t, ts.URL)
	if got := *h.Recovery; got != (healthzRecovery{Restored: 1, Carried: 5}) {
		t.Fatalf("second restart recovery = %+v, want 1 restored and 5 carried", got)
	}
	for id, body := range first {
		if got := getBytes(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id)); !bytes.Equal(got, body) {
			t.Errorf("job %d view changed across restarts:\n got %s\nwant %s", id, got, body)
		}
	}
}

// TestRecoveredIngestJobRefusesInput checks that an ingest job recovery
// settled answers producers as a settled live stream does — a 409 saying
// the job is no longer running — and that a generator job still says it
// is not an ingest job.
func TestRecoveredIngestJobRefusesInput(t *testing.T) {
	srv, ts := recoverServer(t, outcomeJournal(t))
	defer srv.closeDurability()
	defer ts.Close()

	for _, id := range []int{3, 5, 6} {
		resp, out := postSessions(t, fmt.Sprintf("%s/v1/jobs/%d/sessions?watermark=7200", ts.URL, id),
			"text/csv", sessionRows(7200, 3))
		if msg, _ := out["error"].(string); resp.StatusCode != http.StatusConflict || !strings.Contains(msg, "no longer running") {
			t.Errorf("push to settled ingest job %d = %d %v, want 409 no longer running", id, resp.StatusCode, out)
		}
		resp, out = postSessions(t, fmt.Sprintf("%s/v1/jobs/%d/finish", ts.URL, id), "", "")
		if msg, _ := out["error"].(string); resp.StatusCode != http.StatusConflict || !strings.Contains(msg, "no longer running") {
			t.Errorf("finish of settled ingest job %d = %d %v, want 409 no longer running", id, resp.StatusCode, out)
		}
	}
	resp, out := postSessions(t, ts.URL+"/v1/jobs/1/sessions", "text/csv", sessionRows(0, 1))
	if msg, _ := out["error"].(string); resp.StatusCode != http.StatusConflict || !strings.Contains(msg, "not an ingest job") {
		t.Errorf("push to generator job = %d %v, want 409 not an ingest job", resp.StatusCode, out)
	}
}
