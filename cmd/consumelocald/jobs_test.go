package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"consumelocal"
	"consumelocal/internal/engine"
	"consumelocal/internal/trace"
)

// gatedSource is a deterministic live Source for job-manager tests: each
// session is released by one token on gate (close the gate to release
// the rest), so tests control exactly how far a replay has progressed
// when they poll, follow or cancel it.
type gatedSource struct {
	meta     trace.Meta
	sessions []trace.Session
	gate     chan struct{}

	mu       sync.Mutex
	consumed int
}

func newGatedSource(n int, spacingSec int64) *gatedSource {
	g := &gatedSource{
		meta: trace.Meta{
			Name:       "gated",
			HorizonSec: int64(n)*spacingSec + 7200,
			NumUsers:   100,
			NumContent: 4,
			NumISPs:    2,
		},
		gate: make(chan struct{}, n),
	}
	for i := 0; i < n; i++ {
		g.sessions = append(g.sessions, trace.Session{
			UserID:      uint32(i % 100),
			ContentID:   uint32(i % 4),
			ISP:         uint8(i % 2),
			Exchange:    uint16(i % 345),
			StartSec:    int64(i) * spacingSec,
			DurationSec: 600,
			Bitrate:     trace.BitrateSD,
		})
	}
	return g
}

func (g *gatedSource) Meta() trace.Meta { return g.meta }

func (g *gatedSource) Next() (trace.Session, error) {
	g.mu.Lock()
	i := g.consumed
	g.mu.Unlock()
	if i >= len(g.sessions) {
		return trace.Session{}, io.EOF
	}
	<-g.gate
	g.mu.Lock()
	s := g.sessions[g.consumed]
	g.consumed++
	g.mu.Unlock()
	return s, nil
}

func (g *gatedSource) Consumed() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.consumed
}

// release feeds n session tokens through the gate.
func (g *gatedSource) release(n int) {
	for i := 0; i < n; i++ {
		g.gate <- struct{}{}
	}
}

// gatedServer wires a test server whose async jobs read from gated
// sources, handed out in submission order.
func gatedServer(t *testing.T, maxJobs int, sources ...*gatedSource) *httptest.Server {
	t.Helper()
	srv := newServer(maxJobs)
	var mu sync.Mutex
	next := 0
	srv.sourceHook = func(*http.Request) (consumelocal.Source, func(), error) {
		mu.Lock()
		defer mu.Unlock()
		if next >= len(sources) {
			return nil, nil, fmt.Errorf("test: no source for submission %d", next+1)
		}
		src := sources[next]
		next++
		return src, nil, nil
	}
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return ts
}

func postJob(t *testing.T, url string) (*http.Response, jobView) {
	t.Helper()
	resp, err := http.Post(url, "text/csv", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, v
}

func pollJobStatus(t *testing.T, base string, id int, want string) jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var v jobView
		getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", base, id), &v)
		if v.Status == want {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d stuck in status %q (want %q)", id, v.Status, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func deleteJob(t *testing.T, base string, id int) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", base, id), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// TestAsyncJobLifecycle submits a CSV-bodied async job and follows it
// through 202 → running → done, then reads its snapshot history and
// energy report.
func TestAsyncJobLifecycle(t *testing.T) {
	ts := httptest.NewServer(newServer(0).routes())
	defer ts.Close()
	csv := testTraceCSV(t)

	resp, err := http.Post(ts.URL+"/v1/jobs?window=21600&name=async", "text/csv", bytes.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs status = %d, want 202", resp.StatusCode)
	}
	if v.ID == 0 || v.Name != "async" {
		t.Fatalf("implausible job view: %+v", v)
	}

	final := pollJobStatus(t, ts.URL, v.ID, "done")
	if final.Snapshots < 2 {
		t.Fatalf("finished job has %d snapshots, want several", final.Snapshots)
	}
	if !final.Snapshot.Final {
		t.Fatal("latest snapshot of a finished job should be final")
	}

	// Full snapshot history as NDJSON, closed by a status line.
	sresp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d/snapshots", ts.URL, v.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var lines, statusLines int
	sc := bufio.NewScanner(sresp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if _, ok := m["status"]; ok {
			statusLines++
			if !strings.Contains(sc.Text(), `"done"`) {
				t.Fatalf("closing status line = %s, want done", sc.Text())
			}
			continue
		}
		lines++
	}
	if lines != final.Snapshots || statusLines != 1 {
		t.Fatalf("snapshot stream: %d lines + %d status, want %d + 1", lines, statusLines, final.Snapshots)
	}

	var energyOut struct {
		Status  string  `json:"status"`
		Offload float64 `json:"offload"`
	}
	getJSON(t, fmt.Sprintf("%s/v1/jobs/%d/energy", ts.URL, v.ID), &energyOut)
	if energyOut.Status != "done" || energyOut.Offload <= 0 {
		t.Fatalf("energy endpoint: %+v", energyOut)
	}
}

// TestAsyncJobGeneratorSource runs a job off the live synthetic
// generator: no request body, no trace file, workload streamed straight
// into the engine.
func TestAsyncJobGeneratorSource(t *testing.T) {
	ts := httptest.NewServer(newServer(0).routes())
	defer ts.Close()

	resp, v := postJob(t, ts.URL+"/v1/jobs?source=generator&scale=0.001&days=2&window=21600")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("generator job status = %d, want 202", resp.StatusCode)
	}
	final := pollJobStatus(t, ts.URL, v.ID, "done")
	if final.Snapshots == 0 || final.Snapshot.SessionsSeen == 0 {
		t.Fatalf("generator job finished empty: %+v", final)
	}
	if final.Snapshot.Cumulative.Offload() <= 0 {
		t.Fatal("generator job reports no offload")
	}
}

// TestJobQuotaConcurrencyAndCancel is the job-manager acceptance test:
// two gated replays run concurrently, a third submission bounces off the
// quota with 429, DELETE cancels one mid-stream, and the freed slot
// admits a new job.
func TestJobQuotaConcurrencyAndCancel(t *testing.T) {
	const sessions = 40
	a := newGatedSource(sessions, 1800)
	b := newGatedSource(sessions, 1800)
	c := newGatedSource(sessions, 1800)
	ts := gatedServer(t, 2, a, b, c)

	respA, jobA := postJob(t, ts.URL+"/v1/jobs?name=a")
	respB, jobB := postJob(t, ts.URL+"/v1/jobs?name=b")
	if respA.StatusCode != http.StatusAccepted || respB.StatusCode != http.StatusAccepted {
		t.Fatalf("job submissions = %d/%d, want 202/202", respA.StatusCode, respB.StatusCode)
	}

	// Both replays are live at once: each consumes sessions only when
	// its gate feeds them, and both make progress while both run.
	a.release(4)
	b.release(4)
	waitFor(t, "both jobs consuming", func() bool { return a.Consumed() >= 4 && b.Consumed() >= 4 })
	var views []jobView
	getJSON(t, ts.URL+"/v1/jobs", &views)
	running := 0
	for _, v := range views {
		if v.Status == "running" {
			running++
		}
	}
	if running != 2 {
		t.Fatalf("%d jobs running, want 2 concurrent replays", running)
	}

	// Quota: a third replay is refused with 429 while both slots are
	// taken — before its source is even resolved.
	respOver, _ := postJob(t, ts.URL+"/v1/jobs?name=over")
	if respOver.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submission = %d, want 429", respOver.StatusCode)
	}

	// DELETE cancels job A mid-stream: its source is released and the
	// pipeline unwinds, but consumption stops at the cancellation point.
	if resp := deleteJob(t, ts.URL, jobA.ID); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d, want 200", resp.StatusCode)
	}
	close(a.gate)
	final := pollJobStatus(t, ts.URL, jobA.ID, "cancelled")
	if final.Error == "" {
		t.Fatal("cancelled job reports no error")
	}
	if got := a.Consumed(); got >= sessions {
		t.Fatalf("cancelled job consumed the whole source (%d sessions)", got)
	}

	// The freed slot admits the next submission, which reads source c
	// (the refused attempt never consumed one).
	respC, jobC := postJob(t, ts.URL+"/v1/jobs?name=c")
	if respC.StatusCode != http.StatusAccepted {
		t.Fatalf("post-cancel submission = %d, want 202", respC.StatusCode)
	}

	close(b.gate)
	close(c.gate)
	pollJobStatus(t, ts.URL, jobB.ID, "done")
	pollJobStatus(t, ts.URL, jobC.ID, "done")
}

// TestJobSnapshotsMidFlight follows a running job's snapshot stream:
// history arrives first, live windows land while the replay is provably
// still running, and the stream closes with the job's final status.
func TestJobSnapshotsMidFlight(t *testing.T) {
	src := newGatedSource(40, 1800) // a window boundary every 2 sessions
	ts := gatedServer(t, 1, src)

	resp, v := postJob(t, ts.URL+"/v1/jobs?name=live")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submission = %d, want 202", resp.StatusCode)
	}

	// Let a few windows settle, then attach a follower.
	src.release(8)
	waitFor(t, "windows settled", func() bool {
		var view jobView
		getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, v.ID), &view)
		return view.Snapshots >= 2
	})

	sresp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d/snapshots", ts.URL, v.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	sc := bufio.NewScanner(sresp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	// Two history lines arrive while the job still runs.
	for i := 0; i < 2; i++ {
		if !sc.Scan() {
			t.Fatalf("snapshot stream ended after %d lines: %v", i, sc.Err())
		}
		var snap map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
			t.Fatalf("bad snapshot line %q: %v", sc.Text(), err)
		}
		if _, ok := snap["cumulative"]; !ok {
			t.Fatalf("snapshot line missing cumulative tally: %s", sc.Text())
		}
	}
	var mid jobView
	getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, v.ID), &mid)
	if mid.Status != "running" {
		t.Fatalf("job status while following = %q, want running", mid.Status)
	}

	// Release the rest; the follower sees the remaining snapshots and
	// the closing status line.
	close(src.gate)
	sawStatus := false
	for sc.Scan() {
		if strings.Contains(sc.Text(), `"status"`) {
			sawStatus = true
			if !strings.Contains(sc.Text(), `"done"`) {
				t.Fatalf("closing line = %s, want done", sc.Text())
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawStatus {
		t.Fatal("snapshot stream missing closing status line")
	}
}

func TestCreateJobRejectsBadInput(t *testing.T) {
	ts := httptest.NewServer(newServer(0).routes())
	defer ts.Close()

	for _, url := range []string{
		"/v1/jobs?ratio=nope",
		"/v1/jobs?source=quantum",
		"/v1/jobs?source=generator&scale=wat",
		"/v1/jobs?source=generator&scale=0",
		"/v1/jobs?source=generator&scale=1.5",
		"/v1/jobs?source=generator&days=0",
		"/v1/jobs?source=generator&days=400",
		"/v1/jobs?window=30",
		// Non-finite rates parse as floats; the replay must refuse them
		// rather than report 0% offload.
		"/v1/jobs?source=generator&scale=0.001&days=1&ratio=NaN",
		"/v1/jobs?source=generator&scale=0.001&days=1&ratio=Inf",
		"/v1/jobs?source=generator&scale=0.001&days=1&participation=NaN",
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

	// Garbage CSV body fails at source construction, before a job is
	// registered.
	resp, err := http.Post(ts.URL+"/v1/jobs", "text/csv", strings.NewReader("not a trace"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body = %d, want 400", resp.StatusCode)
	}
	var views []jobView
	getJSON(t, ts.URL+"/v1/jobs", &views)
	if len(views) != 0 {
		t.Fatalf("rejected submissions registered %d jobs", len(views))
	}
}

func TestCancelMissingJob(t *testing.T) {
	ts := httptest.NewServer(newServer(0).routes())
	defer ts.Close()
	if resp := deleteJob(t, ts.URL, 42); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE missing job = %d, want 404", resp.StatusCode)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFollowAcrossEviction drives job.follow across snapshot-history
// evictions: a caught-up follower must keep receiving new snapshots
// after snapsStart advances, and a follower that fell behind the
// retained window skips ahead instead of stalling (regression: follow
// once tracked slice-relative positions and starved forever at the
// first eviction).
func TestFollowAcrossEviction(t *testing.T) {
	j := &job{status: "running", changed: make(chan struct{})}
	for i := 0; i < 5; i++ {
		j.snaps = append(j.snaps, engine.Snapshot{Index: i})
	}

	emitted := make(chan int, 32)
	followDone := make(chan struct{})
	go func() {
		defer close(followDone)
		j.follow(context.Background(), func(snap engine.Snapshot) {
			emitted <- snap.Index
		})
	}()
	recv := func(want int) {
		t.Helper()
		select {
		case got := <-emitted:
			if got != want {
				t.Errorf("follow emitted snapshot %d, want %d", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for snapshot %d", want)
		}
	}
	for i := 0; i < 5; i++ {
		recv(i)
	}

	// push appends the snapshot and evicts the history down to keep
	// entries, exactly as Snapshot does when maxJobSnapshots overflows.
	push := func(idx, keep int) {
		j.mu.Lock()
		j.snaps = append(j.snaps, engine.Snapshot{Index: idx})
		if drop := len(j.snaps) - keep; drop > 0 {
			j.snaps = append(j.snaps[:0], j.snaps[drop:]...)
			j.snapsStart += drop
		}
		j.broadcastLocked()
		j.mu.Unlock()
	}

	push(5, 3) // caught-up follower across an eviction
	recv(5)
	push(6, 2)
	recv(6)
	// Evict past the follower's position entirely: it must skip ahead to
	// the start of the retained window.
	j.mu.Lock()
	j.snaps = []engine.Snapshot{{Index: 9}}
	j.snapsStart = 9
	j.broadcastLocked()
	j.mu.Unlock()
	recv(9)

	j.mu.Lock()
	j.status = "done"
	j.broadcastLocked()
	j.mu.Unlock()
	select {
	case <-followDone:
	case <-time.After(5 * time.Second):
		t.Fatal("follow did not return after the job finished")
	}
}

// TestCreateJobBodyTooLarge exercises the spool cap: a body larger than
// the server's maxBody is refused with 413 before any job registers.
func TestCreateJobBodyTooLarge(t *testing.T) {
	srv := newServer(0)
	srv.maxBody = 1024
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/jobs", "text/csv", strings.NewReader(strings.Repeat("x", 4096)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", resp.StatusCode)
	}
	var views []jobView
	getJSON(t, ts.URL+"/v1/jobs", &views)
	if len(views) != 0 {
		t.Fatalf("rejected submission registered %d jobs", len(views))
	}
}
