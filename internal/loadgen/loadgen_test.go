package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"consumelocal"
	"consumelocal/internal/obs"
	"consumelocal/internal/trace"
)

func TestApportion(t *testing.T) {
	cases := []struct {
		mix     mix
		clients int
		want    mix
	}{
		{mix{producers: 4, followers: 3, trace: 1}, 256, mix{producers: 128, followers: 96, trace: 32}},
		{mix{producers: 4, followers: 3, trace: 1}, 8, mix{producers: 4, followers: 3, trace: 1}},
		// Every positive weight fields at least one client.
		{mix{producers: 100, followers: 1, trace: 1}, 6, mix{producers: 4, followers: 1, trace: 1}},
		{mix{producers: 1}, 5, mix{producers: 5}},
		{mix{producers: 4, followers: 3, trace: 1}, 1, mix{producers: 1}},
	}
	for _, tc := range cases {
		got := tc.mix.apportion(tc.clients)
		if got != tc.want {
			t.Errorf("apportion(%+v, %d) = %+v, want %+v", tc.mix, tc.clients, got, tc.want)
		}
		if got.producers+got.followers+got.trace != tc.clients {
			t.Errorf("apportion(%+v, %d) lost clients: %+v", tc.mix, tc.clients, got)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	good.Addr = "http://localhost:1"
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutate := map[string]func(*Config){
		"no target": func(c *Config) { c.Addr, c.DaemonPath = "", "" },
		"bare addr": func(c *Config) { c.Addr = "localhost:8377" },
		"clients":   func(c *Config) { c.Clients = 0 },
		"duration":  func(c *Config) { c.Duration = 0 },
		"burst":     func(c *Config) { c.Burst = 0 },
		"scale":     func(c *Config) { c.Scale = 0 },
	}
	for name, f := range mutate {
		c := good
		f(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

func TestPacerUnpaced(t *testing.T) {
	p := newPacer(0, 1)
	start := time.Now()
	for i := 0; i < 1000; i++ {
		if err := p.wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("unpaced wait throttled: 1000 ops took %s", d)
	}
}

func TestPacerShapesRate(t *testing.T) {
	// 100 ops/s with burst 1: 20 ops need ~190ms of token refill.
	p := newPacer(100, 1)
	start := time.Now()
	for i := 0; i < 20; i++ {
		if err := p.wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d < 150*time.Millisecond {
		t.Fatalf("pacer let 20 ops through in %s at 100/s burst 1", d)
	}
}

func TestPacerCancel(t *testing.T) {
	p := newPacer(0.001, 1)
	if err := p.wait(context.Background()); err != nil { // drain the burst token
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.wait(ctx); err == nil {
		t.Fatal("wait returned without a token before cancellation")
	}
}

func TestPacerBehindSchedule(t *testing.T) {
	p := newPacer(1000, 4)
	p.last = time.Now().Add(-time.Second) // a second of unconsumed offered load
	if err := p.wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := p.behindSchedule(); got < 900 {
		t.Fatalf("behindSchedule = %d after a second of saturation at 1000/s", got)
	}
}

func TestSummariseEmptyMarshals(t *testing.T) {
	s := summarise(obs.NewHistogram(obs.LatencyBuckets))
	if s.Count != 0 || s.P99Ms != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("empty summary does not marshal: %v", err)
	}
}

// stubDaemon is an in-process stand-in for consumelocald implementing
// just enough of the job API for the harness's client loops, with a
// real obs registry behind /metrics so the scrape cross-check runs the
// same code path as against the daemon.
type stubDaemon struct {
	mu     sync.Mutex
	nextID int
	jobs   map[int]*stubJob

	reg     *obs.Registry
	pushed  *obs.Counter
	windows *obs.Counter
}

type stubJob struct {
	id     int
	ingest bool
	status string
}

func newStubDaemon() *stubDaemon {
	sd := &stubDaemon{nextID: 1, jobs: make(map[int]*stubJob), reg: obs.NewRegistry()}
	sd.pushed = sd.reg.Counter("consumelocald_ingest_sessions_pushed_total", "stub.")
	sd.windows = sd.reg.Counter("consumelocal_replay_windows_settled_total", "stub.")
	sd.reg.Counter("consumelocald_jobs_rejected_total", "stub.")
	sd.reg.GaugeFunc("consumelocald_jobs_running", "stub.", func() float64 {
		sd.mu.Lock()
		defer sd.mu.Unlock()
		n := 0
		for _, j := range sd.jobs {
			if j.status == "running" {
				n++
			}
		}
		return float64(n)
	})
	return sd
}

func (sd *stubDaemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", sd.reg.Handler())
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		sd.mu.Lock()
		j := &stubJob{id: sd.nextID, ingest: r.URL.Query().Get("source") == "ingest", status: "running"}
		sd.nextID++
		sd.jobs[j.id] = j
		sd.mu.Unlock()
		if !j.ingest {
			// Spooled traces replay fast in the stub.
			go func() {
				time.Sleep(20 * time.Millisecond)
				sd.mu.Lock()
				j.status = "done"
				sd.mu.Unlock()
			}()
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]any{"id": j.id})
	})
	mux.HandleFunc("POST /v1/jobs/{id}/sessions", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		n := 0
		for _, line := range strings.Split(string(body), "\n") {
			if strings.TrimSpace(line) != "" {
				n++
			}
		}
		sd.pushed.Add(float64(n))
		json.NewEncoder(w).Encode(map[string]any{"pushed": n})
	})
	mux.HandleFunc("POST /v1/jobs/{id}/finish", func(w http.ResponseWriter, r *http.Request) {
		sd.mu.Lock()
		for _, j := range sd.jobs {
			if fmt.Sprint(j.id) == r.PathValue("id") {
				j.status = "done"
			}
		}
		sd.mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{})
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		sd.mu.Lock()
		views := make([]map[string]any, 0, len(sd.jobs))
		for _, j := range sd.jobs {
			views = append(views, map[string]any{"id": j.id, "status": j.status, "ingest": j.ingest})
		}
		sd.mu.Unlock()
		json.NewEncoder(w).Encode(views)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		sd.mu.Lock()
		defer sd.mu.Unlock()
		for _, j := range sd.jobs {
			if fmt.Sprint(j.id) == r.PathValue("id") {
				json.NewEncoder(w).Encode(map[string]any{"id": j.id, "status": j.status, "ingest": j.ingest})
				return
			}
		}
		http.Error(w, "not found", http.StatusNotFound)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/snapshots", func(w http.ResponseWriter, r *http.Request) {
		fl, _ := w.(http.Flusher)
		for i := 0; i < 3; i++ {
			fmt.Fprintf(w, `{"to_sec":%d}`+"\n", (i+1)*3600)
			if fl != nil {
				fl.Flush()
			}
			sd.windows.Inc()
			select {
			case <-r.Context().Done():
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
	})
	return mux
}

func TestRunAgainstStubDaemon(t *testing.T) {
	sd := newStubDaemon()
	ts := httptest.NewServer(sd.handler())
	defer ts.Close()

	out := filepath.Join(t.TempDir(), "BENCH_daemon.json")
	cfg := DefaultConfig()
	cfg.Addr = ts.URL
	cfg.Clients = 12
	cfg.Duration = 500 * time.Millisecond
	cfg.Rate = 2000
	cfg.Burst = 64
	cfg.Scale = 0.001
	cfg.Output = out

	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors.HTTP5xx != 0 {
		t.Fatalf("stub run saw %d 5xx", rep.Errors.HTTP5xx)
	}
	if rep.Ingest.JobsOpened == 0 || rep.Ingest.SessionsAccepted == 0 {
		t.Fatalf("no ingest progress: %+v", rep.Ingest)
	}
	if rep.Latency.Create.Count == 0 || rep.Latency.Batch.Count == 0 {
		t.Fatalf("latency histograms empty: %+v", rep.Latency)
	}
	if rep.Server == nil {
		t.Fatal("report missing server section")
	}
	// The stub's session ledger is driven by the same pushes the
	// clients count, and nothing else talks to it — the cross-check
	// must agree exactly.
	if rep.Skew.Diff != 0 {
		t.Fatalf("session ledgers disagree: client %d, server %d",
			rep.Skew.ClientSessions, rep.Skew.ServerSessions)
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var reread Report
	if err := json.Unmarshal(data, &reread); err != nil {
		t.Fatalf("written report does not parse: %v", err)
	}
	if reread.Ingest.SessionsAccepted != rep.Ingest.SessionsAccepted {
		t.Fatal("written report disagrees with returned report")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig() // neither Addr nor DaemonPath
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("Run accepted a config with no target")
	}
}

func TestRenderBatchesCoversHorizon(t *testing.T) {
	liveCfg := consumelocal.DefaultLiveTraceConfig(0.002)
	tr, err := consumelocal.GenerateLiveTrace(liveCfg)
	if err != nil {
		t.Fatal(err)
	}
	batches := renderBatches(tr, 3600)
	if len(batches) == 0 {
		t.Fatal("no batches")
	}
	total := 0
	var parsed []trace.Session
	for i, b := range batches {
		total += b.sessions
		rows, err := trace.ReadSessionsCSV(strings.NewReader(b.csv))
		if err != nil {
			t.Fatalf("batch %d does not parse: %v", i, err)
		}
		if len(rows) != b.sessions {
			t.Fatalf("batch %d parses to %d sessions, claims %d", i, len(rows), b.sessions)
		}
		parsed = append(parsed, rows...)
	}
	if total != len(tr.Sessions) {
		t.Fatalf("batches carry %d sessions, trace has %d", total, len(tr.Sessions))
	}
	if !slices.Equal(parsed, tr.Sessions) {
		t.Fatal("batch bodies do not parse back to the trace's sessions")
	}
	if last := batches[len(batches)-1].boundary; last != tr.HorizonSec {
		t.Fatalf("last boundary %d, want horizon %d", last, tr.HorizonSec)
	}
	for i := 1; i < len(batches); i++ {
		if batches[i].boundary <= batches[i-1].boundary {
			t.Fatalf("boundaries not increasing at %d", i)
		}
	}
}
