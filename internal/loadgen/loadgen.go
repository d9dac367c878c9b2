// Package loadgen is the production load harness behind `consumelocal
// loadtest`: it drives a running consumelocald — or spawns one itself —
// with hundreds of concurrent clients in a fixed workload mix (live
// ingest producers, snapshot followers, spooled trace submissions),
// shapes the offered load with an open-loop token-bucket arrival model,
// and measures what the daemon actually delivered: per-operation
// latency percentiles from the repo's own fixed-bucket histograms, HTTP
// error and backpressure-stall counts, ingest throughput, daemon RSS,
// and a client-versus-server cross-check built from /metrics scrapes
// taken at the start and end of the run.
//
// The harness is deliberately built from the same parts it measures:
// latencies land in internal/obs histograms (the daemon's own histogram
// implementation), scrapes are parsed with obs.ParseExposition (the CI
// metrics linter), and the workload is the evening-TV live trace the
// ingest API was designed around. The JSON report (Config.Output)
// measures the whole service under concurrent HTTP load; the gated
// benchmark of record is perfbench/. See docs/LOADTEST.md.
package loadgen

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"consumelocal"
	"consumelocal/internal/obs"
	"consumelocal/internal/trace"
)

// The workload's fixed shape. The fleet is apportioned 4:3:1 across
// producers, followers and trace submitters; wallFraction of the
// producers open their jobs with watermark=wall, the silent-producer
// workload the daemon's wall-clock fallback exists for; every ingest
// job reports in windowSec-second trace windows.
const (
	wallFraction = 0.25
	windowSec    = 3600
)

// fleetMix is the producers:followers:trace apportionment.
var fleetMix = mix{producers: 4, followers: 3, trace: 1}

// Config parameterises one load-test run. The zero value is not
// runnable; start from DefaultConfig.
type Config struct {
	// Addr is the base URL of a daemon to drive (e.g.
	// http://localhost:8377). Empty means spawn DaemonPath on an
	// ephemeral port and tear it down with the run.
	Addr string
	// DaemonPath is the consumelocald binary to spawn when Addr is
	// empty. Its -max-jobs quota is derived from the fleet, wide
	// enough that no client is artificially starved.
	DaemonPath string
	// Clients is the total number of concurrent clients across all
	// workload classes.
	Clients int
	// Duration is how long to keep the fleet driving load.
	Duration time.Duration
	// Rate is the aggregate offered operation rate in ops/second,
	// shared by every paced client through one token bucket. Zero or
	// negative disables pacing (closed-loop, as fast as the daemon
	// answers).
	Rate float64
	// Burst is the token-bucket capacity: how many operations may fire
	// back-to-back after an idle stretch.
	Burst int
	// Scale sizes the shared evening-TV live trace (relative to the
	// paper's city-scale broadcast).
	Scale float64
	// Chaos injects a fault mid-run: halfway through, the spawned
	// daemon is SIGKILLed and restarted on the same address and data
	// directory while the fleet keeps driving load. The report gains a
	// chaos section (recovery timings, restored/resumed/interrupted
	// jobs, a post-restart ledger cross-check). Requires spawn mode
	// (empty Addr) — the harness will not kill a daemon it does not own.
	Chaos bool
	// ChaosKills is how many kill/restart cycles chaos mode runs,
	// spread evenly through the run (cycle i fires at
	// Duration*(i+1)/(kills+1)). Zero defaults to one cycle; values
	// above one prove a live ingest stream survives *repeated* crashes.
	ChaosKills int
	// DataDir is passed to a spawned daemon as -data-dir. Empty with
	// Chaos set uses a temporary directory torn down with the run.
	DataDir string
	// Output is the report path. Empty skips writing the file (the
	// Report is still returned).
	Output string
	// Out receives human-readable progress lines; nil is silent.
	Out io.Writer
}

// DefaultConfig returns the acceptance-shaped run: 256 clients for 30
// seconds at 200 ops/s.
func DefaultConfig() Config {
	return Config{
		Clients:  256,
		Duration: 30 * time.Second,
		Rate:     200,
		Burst:    64,
		Scale:    0.002,
	}
}

// Validate rejects configurations the harness cannot honour.
func (c *Config) Validate() error {
	if c.Addr == "" && c.DaemonPath == "" {
		return fmt.Errorf("loadgen: need -addr of a running daemon or -daemon binary to spawn")
	}
	if c.Addr != "" && !strings.HasPrefix(c.Addr, "http://") && !strings.HasPrefix(c.Addr, "https://") {
		return fmt.Errorf("loadgen: -addr %q must be a base URL (http://host:port)", c.Addr)
	}
	if c.Clients <= 0 {
		return fmt.Errorf("loadgen: -clients must be positive, got %d", c.Clients)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("loadgen: -duration must be positive, got %s", c.Duration)
	}
	if c.Burst < 1 {
		return fmt.Errorf("loadgen: -burst must be at least 1, got %d", c.Burst)
	}
	if c.Scale <= 0 {
		return fmt.Errorf("loadgen: -scale must be positive, got %g", c.Scale)
	}
	if c.Chaos && c.Addr != "" {
		return fmt.Errorf("loadgen: -chaos needs a spawned daemon (drop -addr): the harness only kills daemons it owns")
	}
	if c.ChaosKills < 0 || c.ChaosKills > 16 {
		return fmt.Errorf("loadgen: -chaos-kills must be in [0,16], got %d", c.ChaosKills)
	}
	if c.ChaosKills > 1 && !c.Chaos {
		return fmt.Errorf("loadgen: -chaos-kills needs -chaos")
	}
	return nil
}

// mix is the client apportionment across workload classes.
type mix struct {
	producers, followers, trace int
}

// apportion splits clients across the mix by largest remainder, then
// guarantees every positively-weighted class at least one client when
// there are enough clients to go around — a 4:3:1 mix with 6 clients
// still fields a trace submitter.
func (m mix) apportion(clients int) mix {
	w := [3]int{m.producers, m.followers, m.trace}
	total := w[0] + w[1] + w[2]
	var counts [3]int
	var fracs [3]float64
	assigned := 0
	for i, wi := range w {
		exact := float64(clients) * float64(wi) / float64(total)
		counts[i] = int(exact)
		fracs[i] = exact - float64(counts[i])
		assigned += counts[i]
	}
	for assigned < clients {
		best := 0
		for i := 1; i < 3; i++ {
			if fracs[i] > fracs[best] {
				best = i
			}
		}
		counts[best]++
		fracs[best] = -1
		assigned++
	}
	// Positive weight deserves presence: steal from the largest class.
	positive := 0
	for _, wi := range w {
		if wi > 0 {
			positive++
		}
	}
	if clients >= positive {
		for i := range w {
			if w[i] > 0 && counts[i] == 0 {
				big := 0
				for k := 1; k < 3; k++ {
					if counts[k] > counts[big] {
						big = k
					}
				}
				counts[big]--
				counts[i]++
			}
		}
	}
	return mix{producers: counts[0], followers: counts[1], trace: counts[2]}
}

// Run executes one load test and returns its report. The context
// bounds the whole run: cancelling it stops the fleet early (the
// report covers what ran) and tears down a spawned daemon.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	counts := fleetMix.apportion(cfg.Clients)
	wallProducers := int(math.Round(wallFraction * float64(counts.producers)))

	// One shared schedule: the evening-TV live trace, pre-rendered into
	// hourly CSV batches every producer replays, and a spooled-CSV body
	// for the trace submitters. Rendering once keeps the client hot
	// loops free of per-op trace work — they only do HTTP.
	tr, err := consumelocal.GenerateLiveTrace(consumelocal.DefaultLiveTraceConfig(cfg.Scale))
	if err != nil {
		return nil, fmt.Errorf("loadgen: generate live trace: %w", err)
	}
	batches := renderBatches(tr, windowSec)
	traceBody, err := renderTraceBody(tr)
	if err != nil {
		return nil, err
	}

	r := &run{
		cfg:       cfg,
		counts:    counts,
		tr:        tr,
		batches:   batches,
		traceBody: traceBody,
		pace:      newPacer(cfg.Rate, cfg.Burst),
		createLat: obs.NewHistogram(obs.LatencyBuckets),
		batchLat:  obs.NewHistogram(obs.LatencyBuckets),
		snapLat:   obs.NewHistogram(obs.LatencyBuckets),
	}
	r.client = &http.Client{
		Transport: &http.Transport{
			// The fleet holds one long-lived connection per client;
			// without a matching idle pool every paced op would pay a
			// fresh TCP handshake and the latency histograms would
			// measure the harness, not the daemon.
			MaxIdleConns:        cfg.Clients + 8,
			MaxIdleConnsPerHost: cfg.Clients + 8,
			IdleConnTimeout:     2 * time.Minute,
		},
	}

	base := cfg.Addr
	if base == "" {
		dataDir := cfg.DataDir
		if cfg.Chaos && dataDir == "" {
			dataDir, err = os.MkdirTemp("", "loadgen-chaos-*")
			if err != nil {
				return nil, fmt.Errorf("loadgen: chaos data dir: %w", err)
			}
			defer os.RemoveAll(dataDir)
		}
		// Every producer and trace client can hold a job at once; the
		// slack absorbs recycling overlap (finish still draining while
		// the successor job opens).
		r.spawnOpt = spawnOpts{maxJobs: counts.producers + counts.trace + 8, dataDir: dataDir}
		d, err := spawnDaemon(ctx, cfg.DaemonPath, r.spawnOpt, cfg.Out)
		if err != nil {
			return nil, err
		}
		// Pin the respawn command line to the bound port, so a chaos
		// restart comes back exactly where the fleet is pointing.
		r.spawnOpt.addr = d.addr
		r.setDaemon(d)
		defer func() {
			if d := r.curDaemon(); d != nil {
				d.stop()
			}
		}()
		base = "http://" + d.addr
	}
	r.base = base

	r.logf("loadtest: %d clients (%d producers [%d wall], %d followers, %d trace) against %s for %s",
		cfg.Clients, counts.producers, wallProducers, counts.followers, counts.trace, base, cfg.Duration)
	r.logf("loadtest: workload %q: %d sessions over %ds in %d batches",
		tr.Name, len(tr.Sessions), tr.HorizonSec, len(batches))

	// Scrape the daemon before any load so the report's deltas cover
	// exactly this run even against a long-lived daemon.
	initial, err := r.scrape(ctx)
	if err != nil {
		return nil, fmt.Errorf("loadgen: initial /metrics scrape: %w", err)
	}

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	started := time.Now()

	var wg sync.WaitGroup
	idx := 0
	for i := 0; i < counts.producers; i++ {
		wg.Add(1)
		go func(id int, wall bool) {
			defer wg.Done()
			r.producer(runCtx, id, wall)
		}(idx, i < wallProducers)
		idx++
	}
	for i := 0; i < counts.followers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r.follower(runCtx, id)
		}(idx)
		idx++
	}
	for i := 0; i < counts.trace; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r.traceClient(runCtx, id)
		}(idx)
		idx++
	}

	// The chaos cycle, when armed, kills and restarts the daemon at
	// half time while the fleet keeps offering load.
	var chaosRes *chaosOutcome
	chaosDone := make(chan struct{})
	if cfg.Chaos {
		go func() {
			defer close(chaosDone)
			chaosRes = r.chaosCycle(ctx, runCtx)
		}()
	} else {
		close(chaosDone)
	}

	// The supervisor samples the spawned daemon's RSS while the fleet
	// runs.
	superDone := make(chan struct{})
	go func() {
		defer close(superDone)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-tick.C:
				if d := r.curDaemon(); d != nil {
					d.sampleRSS()
				}
			}
		}
	}()

	//consumelocal:ignore ctxsend fleet goroutines exit on the run deadline carried by runCtx, so this join is bounded
	wg.Wait()
	//consumelocal:ignore ctxsend the supervisor closes superDone when the fleet it watches exits, which the bounded join above guarantees
	<-superDone
	//consumelocal:ignore ctxsend the chaos cycle watches runCtx at every wait, so this join is bounded by the same run deadline
	<-chaosDone
	elapsed := time.Since(started)

	// Final scrape after the fleet has gone quiet: in spawn mode no
	// other client exists, so the deltas are exact.
	final, err := r.scrape(ctx)
	if err != nil {
		return nil, fmt.Errorf("loadgen: final /metrics scrape: %w", err)
	}

	rep := r.buildReport(elapsed, initial, final, chaosRes)
	r.logf("loadtest: %.0f sessions/s (%d accepted over %.1fs); create p95 %.1fms, batch p95/p99 %.1f/%.1fms, snapshot p95 %.1fms",
		rep.Ingest.SessionsPerSec, rep.Ingest.SessionsAccepted, rep.ElapsedSec,
		rep.Latency.Create.P95Ms, rep.Latency.Batch.P95Ms, rep.Latency.Batch.P99Ms, rep.Latency.Snapshot.P95Ms)
	r.logf("loadtest: errors: %d 5xx, %d unexpected 4xx, %d network; backpressure: %d quota 429s, %d ordering 409s, %d ops behind schedule",
		rep.Errors.HTTP5xx, rep.Errors.HTTP4xx, rep.Errors.Network,
		rep.Errors.Quota429, rep.Errors.Conflict409, rep.Errors.BehindScheduleOps)
	r.logf("loadtest: session ledger: client %d vs server %d (diff %d)",
		rep.Skew.ClientSessions, rep.Skew.ServerSessions, rep.Skew.Diff)
	if rep.Daemon != nil {
		r.logf("loadtest: daemon pid %d peak RSS %.1f MiB", rep.Daemon.PID, float64(rep.Daemon.RSSPeakBytes)/(1<<20))
	}
	if c := rep.Chaos; c != nil {
		if c.RestartError != "" {
			r.logf("loadtest: chaos: RESTART FAILED: %s", c.RestartError)
		} else {
			r.logf("loadtest: chaos: %d kill(s), first at %.1fs; relisten %.0fms, healthy %.0fms; recovered %d restored / %d resumed / %d resume failed / %d interrupted (torn tail %v); %d producers reattached; %d errors in window; ledger diff %d within bound %d: %v",
				c.Kills, c.KilledAtSec, c.RelistenMs, c.RecoveryMs,
				c.RestoredJobs, c.ResumedJobs, c.ResumeFailedJobs, c.InterruptedJobs, c.TornTail,
				rep.Ingest.ProducersReattached, rep.Errors.RestartWindow, c.LedgerDiff, c.LedgerBound, c.LedgerOK)
		}
	}
	if cfg.Output != "" {
		if err := rep.write(cfg.Output); err != nil {
			return nil, err
		}
		r.logf("loadtest: report written to %s", cfg.Output)
	}
	return rep, nil
}

// renderBatches slices the trace into per-window CSV batches, each
// carrying the watermark boundary a producer advances to after pushing
// it. Quiet windows still appear (empty CSV, live boundary) — that is
// what settles empty windows on the daemon.
type hourBatch struct {
	csv      string
	boundary int64
	sessions int
}

func renderBatches(tr *consumelocal.Trace, window int64) []hourBatch {
	var batches []hourBatch
	var buf []byte
	sessions := tr.Sessions
	for from := int64(0); from < tr.HorizonSec; from += window {
		boundary := min(from+window, tr.HorizonSec)
		buf = buf[:0]
		n := 0
		for ; n < len(sessions) && sessions[n].StartSec < boundary; n++ {
			buf = trace.AppendSessionCSV(buf, sessions[n])
		}
		sessions = sessions[n:]
		batches = append(batches, hourBatch{csv: string(buf), boundary: boundary, sessions: n})
	}
	return batches
}

// renderTraceBody serialises the shared trace as the spooled-CSV job
// body the trace submitters upload.
func renderTraceBody(tr *consumelocal.Trace) (string, error) {
	var b strings.Builder
	if err := consumelocal.WriteTraceCSV(tr, &b); err != nil {
		return "", fmt.Errorf("loadgen: render trace body: %w", err)
	}
	return b.String(), nil
}

// run is the shared state of one load test: configuration, the
// pre-rendered workload, the shared pacer and HTTP client, and the
// latency histograms and tallies the clients write into.
type run struct {
	cfg       Config
	counts    mix
	base      string
	tr        *consumelocal.Trace
	batches   []hourBatch
	traceBody string
	pace      *pacer
	client    *http.Client

	// daemon is the currently-live spawned daemon, swapped under dmu by
	// the chaos cycle when it restarts the process; spawnOpt is kept so
	// the respawn reproduces the original command line (address pinned).
	// window marks the restart interval, during which transport errors
	// are expected and ledgered separately.
	dmu      sync.Mutex
	daemon   *daemon
	spawnOpt spawnOpts
	window   atomic.Bool

	createLat *obs.Histogram // job-opening POSTs (ingest and spooled trace)
	batchLat  *obs.Histogram // session-batch POSTs
	snapLat   *obs.Histogram // follower time to first NDJSON line, then inter-line gaps

	sessionsAccepted atomic.Int64 // pushed counts the daemon acknowledged, 409 prefixes included
	jobsOpened       atomic.Int64
	jobsFinished     atomic.Int64
	tracesSubmitted  atomic.Int64
	quota429         atomic.Int64
	conflict409      atomic.Int64
	err4xx           atomic.Int64 // excluding the counted 429s and 409s
	err5xx           atomic.Int64
	errNet           atomic.Int64 // excluding run-shutdown cancellations
	restartErrs      atomic.Int64 // transport failures inside the chaos restart window
	reattached       atomic.Int64
}

// curDaemon returns the live spawned daemon (nil in -addr mode).
func (r *run) curDaemon() *daemon {
	r.dmu.Lock()
	defer r.dmu.Unlock()
	return r.daemon
}

func (r *run) setDaemon(d *daemon) {
	r.dmu.Lock()
	defer r.dmu.Unlock()
	r.daemon = d
}

func (r *run) logf(format string, args ...any) {
	if r.cfg.Out != nil {
		fmt.Fprintf(r.cfg.Out, format+"\n", args...)
	}
}
