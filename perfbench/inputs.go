package main

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"

	"consumelocal/internal/matching"
	"consumelocal/internal/sim"
	"consumelocal/internal/trace"
)

// Sizes frozen while sizing the benchmark on a 2-CPU box. The workload
// rationale is in CATALOGUE.md.
const (
	// replayScale gives a 30-day catch-up trace of about 470k sessions
	// and 16k swarms (14 MB of CSV).
	replayScale = 0.02
	// ingestScale gives each producer a 30-day catch-up trace of about
	// 1.18M sessions: enough for 47 s at its share of ingestRate.
	ingestScale = 0.05
	// ingestBatch is the sessions per ingest request.
	ingestBatch = 500
	// ingestRate is the ingest requests per second over both producers.
	ingestRate = 100
	// followScale gives an evening of live TV of about 3.1k sessions.
	followScale = 0.002
	// followEvenings is how many distinct evenings a follow run cycles
	// through, so one seed's busiest broadcast does not decide the run.
	followEvenings = 8
	// followWindow is the reporting window of a follow job, and each
	// follow request carries one window.
	followWindow = 300
	// followRate is the follow requests (windows) per second.
	followRate = 50
	// replayWindow is the reporting window of replay and ingest.
	replayWindow = 3600
)

// catchUpTrace is the 30-day catch-up trace of a replay or ingest
// workload.
func catchUpTrace(scale float64, seed int64) (*trace.Trace, error) {
	cfg := trace.DefaultGeneratorConfig(scale)
	cfg.Seed = seed
	return trace.Generate(cfg)
}

// eveningTrace is the live evening-TV schedule with its horizon cut to
// the broadcast span: the schedule starts one window before the first
// broadcast and ends with the last one.
func eveningTrace(seed int64) (*trace.Trace, error) {
	cfg := trace.DefaultLiveConfig(followScale)
	cfg.Seed = seed
	shift := cfg.Events[0].StartSec - followWindow
	end := int64(0)
	for i := range cfg.Events {
		cfg.Events[i].StartSec -= shift
		end = max(end, cfg.Events[i].StartSec+int64(cfg.Events[i].DurationSec))
	}
	cfg.HorizonSec = (end + followWindow - 1) / followWindow * followWindow
	return trace.GenerateLive(cfg)
}

// batchRequests splits sessions into fixed-size batches, each raising
// the watermark to the next batch's first start; the last one raises
// it to the horizon.
func batchRequests(t *trace.Trace, size int) []request {
	var reqs []request
	for first := 0; first < len(t.Sessions); first += size {
		last := min(first+size, len(t.Sessions))
		wm := t.HorizonSec
		if last < len(t.Sessions) {
			wm = t.Sessions[last].StartSec
		}
		reqs = append(reqs, newRequest(t.Sessions, first, last, wm))
	}
	return reqs
}

// windowRequests gives one request per reporting window, carrying the
// sessions that start in it and raising the watermark to its end.
func windowRequests(t *trace.Trace, window int64) []request {
	var reqs []request
	first := 0
	for end := window; end <= t.HorizonSec; end += window {
		last := first
		for last < len(t.Sessions) && t.Sessions[last].StartSec < end {
			last++
		}
		reqs = append(reqs, newRequest(t.Sessions, first, last, end))
		first = last
	}
	return reqs
}

func newRequest(ss []trace.Session, first, last int, wm int64) request {
	r := request{first: first, last: last, maxStart: -1, watermark: wm}
	var body []byte
	for _, s := range ss[first:last] {
		body = trace.AppendSessionCSV(body, s)
		r.maxStart = max(r.maxStart, s.StartSec)
	}
	r.body = body
	return r
}

// renderCSV renders a trace in the CSV interchange format.
func renderCSV(t *trace.Trace) ([]byte, error) {
	var buf bytes.Buffer
	if err := t.WriteCSV(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// prefixTrace is t cut to its first n sessions, with t's metadata.
func prefixTrace(t *trace.Trace, n int) *trace.Trace {
	p := *t
	p.Sessions = t.Sessions[:n]
	return &p
}

// oracle runs the serial reference simulator under the configuration
// every workload replays with, counting its matching calls for the
// traffic audit.
func oracle(t *trace.Trace) (*sim.Result, *countingPolicy, error) {
	pol := &countingPolicy{inner: matching.LocalityFirst{}}
	cfg := sim.DefaultConfig(1.0)
	cfg.Policy = pol
	res, err := sim.Run(t, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("oracle: %w", err)
	}
	return res, pol, nil
}

// countingPolicy wraps a matching policy, counting its calls and peers
// and, when timed, the time spent inside it. Name is unchanged, so
// results carry the inner policy's name. Engine workers call it
// concurrently, so every counter is atomic.
type countingPolicy struct {
	inner matching.Policy
	timed bool

	calls, peers, solo, maxPeers, busyNs atomic.Int64
}

func (p *countingPolicy) Name() string { return p.inner.Name() }

func (p *countingPolicy) Match(peers []matching.Peer, demands, caps []float64, budget float64) (matching.Allocation, error) {
	p.count(len(peers), 0)
	return p.inner.Match(peers, demands, caps, budget)
}

func (p *countingPolicy) MatchInto(a *matching.Allocation, peers []matching.Peer, demands, caps []float64, budget float64) error {
	if !p.timed {
		p.count(len(peers), 0)
		return p.inner.MatchInto(a, peers, demands, caps, budget)
	}
	t0 := time.Now()
	err := p.inner.MatchInto(a, peers, demands, caps, budget)
	p.count(len(peers), time.Since(t0))
	return err
}

func (p *countingPolicy) count(n int, d time.Duration) {
	p.calls.Add(1)
	p.peers.Add(int64(n))
	if n == 1 {
		p.solo.Add(1)
	}
	for {
		m := p.maxPeers.Load()
		if int64(n) <= m || p.maxPeers.CompareAndSwap(m, int64(n)) {
			break
		}
	}
	p.busyNs.Add(int64(d))
}

// matchStats is a snapshot of a countingPolicy's counters.
type matchStats struct {
	Calls, Peers, Solo, MaxPeers int64
	Busy                         time.Duration
}

func (p *countingPolicy) stats() matchStats {
	return matchStats{
		Calls: p.calls.Load(), Peers: p.peers.Load(), Solo: p.solo.Load(),
		MaxPeers: p.maxPeers.Load(), Busy: time.Duration(p.busyNs.Load()),
	}
}

// add accumulates another run's counts.
func (m *matchStats) add(o matchStats) {
	m.Calls += o.Calls
	m.Peers += o.Peers
	m.Solo += o.Solo
	m.MaxPeers = max(m.MaxPeers, o.MaxPeers)
	m.Busy += o.Busy
}

func (m matchStats) peersPerCall() float64 { return ratio(float64(m.Peers), float64(m.Calls)) }
func (m matchStats) soloShare() float64    { return ratio(float64(m.Solo), float64(m.Calls)) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
