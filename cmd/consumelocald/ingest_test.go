package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"consumelocal/internal/trace"
)

// ingestURL builds the job-creation URL for a small live stream: 100
// users, 4 content items, 2 ISPs, a 4-hour horizon, hourly windows.
func ingestURL(base string, extra string) string {
	return base + "/v1/jobs?source=ingest&horizon=14400&users=100&content=4&isps=2&window=3600" + extra
}

// sessionRows renders n sessions starting at startSec as bare CSV rows.
func sessionRows(startSec int64, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d,600,1500\n", i%100, i%4, i%2, i%345, startSec+int64(i))
	}
	return b.String()
}

func postSessions(t *testing.T, url, contentType, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatalf("response body: %v", err)
	}
	return resp, out
}

// TestIngestJobLifecycle drives a complete live broadcast through the
// daemon: open an ingest job, push CSV and JSON session batches with
// watermark advancement, watch windows settle mid-broadcast through the
// snapshot follower, seal the stream, and see the job finish with every
// pushed session accounted for.
func TestIngestJobLifecycle(t *testing.T) {
	ts := httptest.NewServer(newServer(0).routes())
	defer ts.Close()

	resp, v := postJob(t, ingestURL(ts.URL, "&name=broadcast"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest job submission = %d, want 202", resp.StatusCode)
	}
	if !v.Ingest {
		t.Fatalf("ingest job view = %+v, want an ingest job", v)
	}

	// First batch: CSV rows, then advance the watermark past the first
	// window boundary via the query parameter.
	sresp, out := postSessions(t, fmt.Sprintf("%s/v1/jobs/%d/sessions?watermark=3600", ts.URL, v.ID),
		"text/csv", sessionRows(0, 20))
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("CSV batch = %d (%v), want 200", sresp.StatusCode, out)
	}
	if out["pushed"].(float64) != 20 || out["watermark_sec"].(float64) != 3600 {
		t.Fatalf("CSV batch response = %v", out)
	}

	// A follower attached mid-broadcast sees the settled window while
	// the job is still running.
	followResp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d/snapshots", ts.URL, v.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer followResp.Body.Close()
	follower := bufio.NewScanner(followResp.Body)
	follower.Buffer(make([]byte, 1<<20), 1<<20)
	if !follower.Scan() {
		t.Fatalf("no mid-broadcast snapshot: %v", follower.Err())
	}
	var snap struct {
		ToSec        int64 `json:"to_sec"`
		SessionsSeen int64 `json:"sessions_seen"`
	}
	if err := json.Unmarshal(follower.Bytes(), &snap); err != nil {
		t.Fatalf("bad snapshot line %q: %v", follower.Text(), err)
	}
	if snap.ToSec != 3600 || snap.SessionsSeen != 20 {
		t.Fatalf("mid-broadcast snapshot = %+v, want window settled at 3600 after 20 sessions", snap)
	}
	var mid jobView
	getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, v.ID), &mid)
	if mid.Status != "running" || mid.Pushed != 20 || mid.Watermark != 3600 {
		t.Fatalf("mid-broadcast view = %+v, want a running ingest job at watermark 3600", mid)
	}

	// Second batch: JSON sessions with an embedded watermark advance.
	batch := ingestBatch{WatermarkSec: new(int64)}
	*batch.WatermarkSec = 7200
	for i := 0; i < 10; i++ {
		batch.Sessions = append(batch.Sessions, trace.Session{
			UserID: uint32(i), ContentID: 1, ISP: 1, Exchange: 7,
			StartSec: 3700 + int64(i), DurationSec: 300, Bitrate: trace.BitrateSD,
		})
	}
	raw, _ := json.Marshal(batch)
	sresp, out = postSessions(t, fmt.Sprintf("%s/v1/jobs/%d/sessions", ts.URL, v.ID),
		"application/json", string(raw))
	if sresp.StatusCode != http.StatusOK || out["total_pushed"].(float64) != 30 {
		t.Fatalf("JSON batch = %d %v, want 200 with 30 total", sresp.StatusCode, out)
	}

	// Seal the stream: the job drains and completes.
	fresp, err := http.Post(fmt.Sprintf("%s/v1/jobs/%d/finish", ts.URL, v.ID), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, fresp.Body)
	fresp.Body.Close()
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("finish = %d, want 200", fresp.StatusCode)
	}
	final := pollJobStatus(t, ts.URL, v.ID, "done")
	if !final.Snapshot.Final || final.Snapshot.SessionsSeen != 30 {
		t.Fatalf("final view = %+v, want a final snapshot over 30 sessions", final)
	}

	// The follower saw the broadcast out: its stream closes with "done".
	sawDone := false
	for follower.Scan() {
		if strings.Contains(follower.Text(), `"status"`) && strings.Contains(follower.Text(), `"done"`) {
			sawDone = true
		}
	}
	if !sawDone {
		t.Fatal("follower did not see the closing done status")
	}

	// Pushing into a finished broadcast is a conflict.
	sresp, _ = postSessions(t, fmt.Sprintf("%s/v1/jobs/%d/sessions", ts.URL, v.ID),
		"text/csv", sessionRows(8000, 1))
	if sresp.StatusCode != http.StatusConflict {
		t.Fatalf("push after finish = %d, want 409", sresp.StatusCode)
	}
}

// TestIngestOutOfOrderPush: a session behind the already-pushed start
// or the watermark is refused with 409 and does not poison the job; a
// session violating the stream metadata is a 400.
func TestIngestOutOfOrderPush(t *testing.T) {
	ts := httptest.NewServer(newServer(0).routes())
	defer ts.Close()
	_, v := postJob(t, ingestURL(ts.URL, ""))

	if resp, _ := postSessions(t, fmt.Sprintf("%s/v1/jobs/%d/sessions?watermark=3600", ts.URL, v.ID),
		"text/csv", sessionRows(1000, 5)); resp.StatusCode != http.StatusOK {
		t.Fatalf("first batch = %d, want 200", resp.StatusCode)
	}

	// Behind the watermark.
	resp, out := postSessions(t, fmt.Sprintf("%s/v1/jobs/%d/sessions", ts.URL, v.ID),
		"text/csv", sessionRows(2000, 1))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("behind-watermark push = %d (%v), want 409", resp.StatusCode, out)
	}
	if out["pushed"].(float64) != 0 {
		t.Fatalf("rejected batch reports %v pushed, want 0", out["pushed"])
	}

	// A partially-valid batch lands its ordered prefix and reports it.
	body := sessionRows(4000, 2) + sessionRows(3900, 1)
	resp, out = postSessions(t, fmt.Sprintf("%s/v1/jobs/%d/sessions", ts.URL, v.ID), "text/csv", body)
	if resp.StatusCode != http.StatusConflict || out["pushed"].(float64) != 2 {
		t.Fatalf("mixed batch = %d %v, want 409 with 2 pushed", resp.StatusCode, out)
	}

	// Out-of-range metadata (user 500 of 100) is a bad request.
	resp, _ = postSessions(t, fmt.Sprintf("%s/v1/jobs/%d/sessions", ts.URL, v.ID),
		"text/csv", "500,0,0,1,5000,600,1500\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range session = %d, want 400", resp.StatusCode)
	}

	// The job survived every rejection and still completes.
	if resp, _ := http.Post(fmt.Sprintf("%s/v1/jobs/%d/finish", ts.URL, v.ID), "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("finish = %d, want 200", resp.StatusCode)
	}
	pollJobStatus(t, ts.URL, v.ID, "done")
}

// TestIngestQuotaAndCancel: ingest jobs hold a quota slot for the whole
// broadcast; DELETE mid-broadcast cancels the job, refuses further
// pushes, and frees the slot for the next submission.
func TestIngestQuotaAndCancel(t *testing.T) {
	ts := httptest.NewServer(newServer(1).routes())
	defer ts.Close()

	resp, v := postJob(t, ingestURL(ts.URL, ""))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest job = %d, want 202", resp.StatusCode)
	}
	if resp, _ := postJob(t, ingestURL(ts.URL, "")); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second ingest job = %d, want 429 while the broadcast holds the slot", resp.StatusCode)
	}

	if resp, _ := postSessions(t, fmt.Sprintf("%s/v1/jobs/%d/sessions", ts.URL, v.ID),
		"text/csv", sessionRows(0, 5)); resp.StatusCode != http.StatusOK {
		t.Fatalf("push = %d, want 200", resp.StatusCode)
	}

	if resp := deleteJob(t, ts.URL, v.ID); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d, want 200", resp.StatusCode)
	}
	pollJobStatus(t, ts.URL, v.ID, "cancelled")

	// The torn-down stream refuses the producer...
	if resp, _ := postSessions(t, fmt.Sprintf("%s/v1/jobs/%d/sessions", ts.URL, v.ID),
		"text/csv", sessionRows(100, 1)); resp.StatusCode != http.StatusConflict {
		t.Fatalf("push after cancel = %d, want 409", resp.StatusCode)
	}
	if resp, err := http.Post(fmt.Sprintf("%s/v1/jobs/%d/finish", ts.URL, v.ID), "", nil); err != nil || resp.StatusCode != http.StatusConflict {
		t.Fatalf("finish after cancel = %v %d, want 409", err, resp.StatusCode)
	}

	// ...and the slot is free for the next broadcast.
	if resp, _ := postJob(t, ingestURL(ts.URL, "")); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-cancel ingest job = %d, want 202", resp.StatusCode)
	}
}

// TestIngestIdleWatchdog: a broadcast whose producer disappears —
// client crash, network partition — is cancelled after the idle
// deadline so it cannot pin its quota slot forever.
func TestIngestIdleWatchdog(t *testing.T) {
	srv := newServer(1)
	srv.ingestIdle = 50 * time.Millisecond
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	resp, v := postJob(t, ingestURL(ts.URL, ""))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest job = %d, want 202", resp.StatusCode)
	}
	final := pollJobStatus(t, ts.URL, v.ID, "cancelled")
	if !strings.Contains(final.Error, "idle") {
		t.Fatalf("watchdog-cancelled job error = %q, want an idle diagnosis", final.Error)
	}
	// The reclaimed slot admits the next broadcast.
	if resp, _ := postJob(t, ingestURL(ts.URL, "")); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-watchdog ingest job = %d, want 202", resp.StatusCode)
	}
}

// TestIngestWatchdogSparesActiveProducer: a producer pushing steadily —
// even in many small requests — must never be reaped, and sealing the
// stream disarms the watchdog entirely while the backlog drains.
func TestIngestWatchdogSparesActiveProducer(t *testing.T) {
	srv := newServer(1)
	srv.ingestIdle = 300 * time.Millisecond
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	_, v := postJob(t, ingestURL(ts.URL, ""))
	// Push well past the idle deadline in small steps: each accepted
	// session re-arms the watchdog.
	for i := 0; i < 12; i++ {
		resp, out := postSessions(t, fmt.Sprintf("%s/v1/jobs/%d/sessions", ts.URL, v.ID),
			"text/csv", sessionRows(int64(i*10), 1))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("push %d = %d (%v): the watchdog reaped an active producer", i, resp.StatusCode, out)
		}
		time.Sleep(50 * time.Millisecond)
	}
	var view jobView
	getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, v.ID), &view)
	if view.Status != "running" {
		t.Fatalf("steadily-fed job is %q (%s), want running", view.Status, view.Error)
	}

	// Sealing disarms the watchdog: the job finishes as done however
	// long the drain takes, never as idle-cancelled.
	if resp, err := http.Post(fmt.Sprintf("%s/v1/jobs/%d/finish", ts.URL, v.ID), "", nil); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("finish = %v %d, want 200", err, resp.StatusCode)
	}
	if final := pollJobStatus(t, ts.URL, v.ID, "done"); final.Error != "" {
		t.Fatalf("sealed job finished with error %q", final.Error)
	}
}

// TestIngestRejectsBadRequests covers the ingest-specific validation:
// missing stream metadata, malformed parameters, and sessions endpoints
// on non-ingest jobs.
func TestIngestRejectsBadRequests(t *testing.T) {
	ts := httptest.NewServer(newServer(0).routes())
	defer ts.Close()

	for _, url := range []string{
		"/v1/jobs?source=ingest",
		"/v1/jobs?source=ingest&horizon=14400&users=100&content=4",
		"/v1/jobs?source=ingest&horizon=0&users=100&content=4&isps=2",
		"/v1/jobs?source=ingest&horizon=14400&users=wat&content=4&isps=2",
		"/v1/jobs?source=ingest&horizon=14400&users=100&content=4&isps=2&capacity=0",
		"/v1/jobs?source=ingest&horizon=14400&users=100&content=4&isps=2&epoch=yesterday",
		"/v1/jobs?source=ingest&horizon=9000000000000000000&users=100&content=4&isps=2",
		"/v1/jobs?source=ingest&horizon=14400&users=100&content=4&isps=9999",
	} {
		resp, err := http.Post(ts.URL+url, "text/csv", nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s = %d, want 400", url, resp.StatusCode)
		}
	}

	// A batch beyond the RAM-sized cap is refused with 413 before a
	// single session is parsed into memory.
	bigSrv := newServer(0)
	bigSrv.maxBody = 1024
	bts := httptest.NewServer(bigSrv.routes())
	defer bts.Close()
	_, bv := postJob(t, ingestURL(bts.URL, ""))
	resp2, err := http.Post(fmt.Sprintf("%s/v1/jobs/%d/sessions", bts.URL, bv.ID),
		"text/csv", strings.NewReader(sessionRows(0, 200)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch = %d, want 413", resp2.StatusCode)
	}

	// sessions/finish on a non-ingest job: conflict.
	resp, v := postJob(t, ts.URL+"/v1/jobs?source=generator&scale=0.001&days=1")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("generator job = %d, want 202", resp.StatusCode)
	}
	if sresp, _ := postSessions(t, fmt.Sprintf("%s/v1/jobs/%d/sessions", ts.URL, v.ID),
		"text/csv", sessionRows(0, 1)); sresp.StatusCode != http.StatusConflict {
		t.Fatalf("sessions on generator job = %d, want 409", sresp.StatusCode)
	}
	if fresp, err := http.Post(fmt.Sprintf("%s/v1/jobs/%d/finish", ts.URL, v.ID), "", nil); err != nil || fresp.StatusCode != http.StatusConflict {
		t.Fatalf("finish on generator job = %v %d, want 409", err, fresp.StatusCode)
	}
	pollJobStatus(t, ts.URL, v.ID, "done")
}
