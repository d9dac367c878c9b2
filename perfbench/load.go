package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"consumelocal/internal/sim"
	"consumelocal/internal/trace"
)

// lateAfter is how far past its due time an operation may be sent
// before it counts as late.
const lateAfter = time.Millisecond

// The run is invalid when the generator itself fell behind: when more
// than maxSchedWaitShare of its goroutines' scheduling waits exceeded
// lateAfter (they queued for the generator's own CPU), or when it used
// more than maxGeneratorCPU of the CPUs it may run on. Late sends with
// neither sign come from the daemon sharing the box, and are counted in
// the latencies, which run from the due time.
const (
	maxSchedWaitShare = 0.01
	maxGeneratorCPU   = 0.5
)

// conn is one client connection of the load generator. Its requests go
// out one at a time, each timed from the moment it was due, so a stall
// in the daemon shows in every request queued behind it.
type conn struct {
	client *http.Client
	base   string
	freeAt time.Time

	ops, late, genLate int64
	lags               []time.Duration
	spans              []span
	nextOp             *atomic.Int64
	traced             bool
}

func newConn(base string, traced bool, nextOp *atomic.Int64) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{client: &http.Client{Transport: tr}, base: base, traced: traced, nextOp: nextOp}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

type opResult struct {
	op              int64 // span id when traced
	due, sent, done time.Time
	status          int
	body            []byte
	err             error
}

func (r opResult) ok() bool { return r.err == nil && r.status/100 == 2 }

// latency is due-to-done, or failedSample for a failed operation.
func (r opResult) latency() time.Duration {
	if !r.ok() {
		return failedSample
	}
	return r.done.Sub(r.due)
}

// do sends one request at its due time and reads the whole response.
// Traced, it records the operation as a span under parent (the job's
// create operation), with a child span for the time on the wire.
func (c *conn) do(ctx context.Context, due time.Time, name string, parent int64, method, path string, body []byte) opResult {
	if d := time.Until(due); d > 0 {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return opResult{due: due, err: ctx.Err()}
		}
	}
	r := opResult{due: due, sent: time.Now()}
	c.ops++
	lag := r.sent.Sub(later(due, c.freeAt))
	c.lags = append(c.lags, lag)
	if r.sent.Sub(due) > lateAfter {
		c.late++
		if lag > lateAfter {
			c.genLate++
		}
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		r.err = err
		return r
	}
	if body != nil {
		req.Header.Set("Content-Type", "text/csv")
	}
	resp, err := c.client.Do(req)
	if err == nil {
		r.status = resp.StatusCode
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	r.err = err
	r.done = time.Now()
	c.freeAt = r.done
	if c.traced {
		r.op = c.nextOp.Add(1)
		c.spans = append(c.spans,
			span{Name: name, Op: r.op, Parent: parent, Start: due.UnixNano(), End: r.done.UnixNano()},
			span{Name: name + ".send", Op: r.op, Parent: r.op, Start: r.sent.UnixNano(), End: r.done.UnixNano()})
	}
	return r
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// snapLine is one line of a job's NDJSON snapshot stream: a snapshot,
// or the closing status line.
type snapLine struct {
	Index  int    `json:"index"`
	Swarms int    `json:"swarms"`
	Final  bool   `json:"final"`
	Status string `json:"status"`
	Error  string `json:"error"`
}

// follower streams one job's snapshots and notes when each arrived.
type follower struct {
	recv  map[int]time.Time
	final snapLine
	err   error
	done  chan struct{}
}

// follow opens the job's snapshot stream and returns once the request
// is on the wire; the daemon sends nothing until the first snapshot, so
// the stream is read in the background until it ends.
func follow(ctx context.Context, client *http.Client, base string, job int) (*follower, error) {
	f := &follower{recv: map[int]time.Time{}, done: make(chan struct{})}
	wrote := make(chan struct{})
	var once sync.Once
	trace := &httptrace.ClientTrace{WroteRequest: func(httptrace.WroteRequestInfo) { once.Do(func() { close(wrote) }) }}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, trace), http.MethodGet,
		fmt.Sprintf("%s/v1/jobs/%d/snapshots", base, job), nil)
	if err != nil {
		return nil, err
	}
	go func() {
		defer close(f.done)
		f.err = f.read(client, req, job)
	}()
	select {
	case <-wrote:
	case <-f.done:
		if f.err == nil {
			f.err = fmt.Errorf("follow job %d: stream ended before the request was sent", job)
		}
		return nil, f.err
	}
	return f, nil
}

// read consumes the snapshot stream, noting when each window arrived.
func (f *follower) read(client *http.Client, req *http.Request, job int) error {
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("follow job %d: %w", job, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("follow job %d: status %d", job, resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		now := time.Now()
		if len(bytes.TrimSpace(line)) > 0 {
			var l snapLine
			if jerr := json.Unmarshal(line, &l); jerr != nil {
				return fmt.Errorf("follow job %d: %w", job, jerr)
			}
			switch {
			case l.Status != "":
				if l.Status != "done" {
					return fmt.Errorf("follow job %d: ended %s: %s", job, l.Status, l.Error)
				}
			case l.Final:
				f.final = l
			default:
				f.recv[l.Index] = now
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("follow job %d: %w", job, err)
		}
	}
}

// ingestQuery is the job-creation query of a live ingest job for t.
func ingestQuery(t *trace.Trace, name string, window int64) string {
	q := url.Values{}
	q.Set("source", "ingest")
	q.Set("name", name)
	q.Set("window", strconv.FormatInt(window, 10))
	q.Set("horizon", strconv.FormatInt(t.HorizonSec, 10))
	q.Set("users", strconv.Itoa(t.NumUsers))
	q.Set("content", strconv.Itoa(t.NumContent))
	q.Set("isps", strconv.Itoa(t.NumISPs))
	q.Set("epoch", t.Epoch.UTC().Format(time.RFC3339))
	return q.Encode()
}

// createJob creates an ingest job on c and returns its id.
func createJob(ctx context.Context, c *conn, due time.Time, t *trace.Trace, name string, window int64) (int, opResult, error) {
	r := c.do(ctx, due, "consumelocald.create", 0, http.MethodPost, "/v1/jobs?"+ingestQuery(t, name, window), nil)
	if !r.ok() {
		return 0, r, fmt.Errorf("create job: status %d: %v %s", r.status, r.err, bytes.TrimSpace(r.body))
	}
	var v struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(r.body, &v); err != nil {
		return 0, r, fmt.Errorf("create job: %w", err)
	}
	return v.ID, r, nil
}

// pushRequest sends one sessions request and checks the whole batch
// was accepted.
func pushRequest(ctx context.Context, c *conn, due time.Time, job int, parent int64, rq request) opResult {
	path := fmt.Sprintf("/v1/jobs/%d/sessions", job)
	if rq.watermark >= 0 {
		path += "?watermark=" + strconv.FormatInt(rq.watermark, 10)
	}
	r := c.do(ctx, due, "consumelocald.sessions", parent, http.MethodPost, path, rq.body)
	if r.ok() {
		var v struct {
			Pushed int `json:"pushed"`
		}
		if err := json.Unmarshal(r.body, &v); err != nil {
			r.err = err
		} else if v.Pushed != rq.last-rq.first {
			r.err = fmt.Errorf("pushed %d of %d sessions", v.Pushed, rq.last-rq.first)
		}
	}
	return r
}

// energyView is the part of /v1/jobs/{id}/energy the oracle checks.
type energyView struct {
	Status string    `json:"status"`
	Tally  sim.Tally `json:"tally"`
}

// settle finishes a job, waits for its snapshot stream to end (opening
// one on c when fol is nil) and fetches /energy. It returns the time
// from the finish's due time until the result was read.
func settle(ctx context.Context, c *conn, due time.Time, job int, parent int64, fol *follower) (time.Duration, *follower, energyView, []opResult, error) {
	var ops []opResult
	var ev energyView
	fin := c.do(ctx, due, "consumelocald.finish", parent, http.MethodPost, fmt.Sprintf("/v1/jobs/%d/finish", job), nil)
	ops = append(ops, fin)
	if !fin.ok() {
		return 0, fol, ev, ops, fmt.Errorf("finish job %d: status %d: %v", job, fin.status, fin.err)
	}
	if fol == nil {
		var err error
		if fol, err = follow(ctx, c.client, c.base, job); err != nil {
			return 0, fol, ev, ops, err
		}
	}
	select {
	case <-fol.done:
	case <-ctx.Done():
		return 0, fol, ev, ops, ctx.Err()
	}
	if fol.err != nil {
		return 0, fol, ev, ops, fol.err
	}
	en := c.do(ctx, time.Now(), "consumelocald.energy", parent, http.MethodGet, fmt.Sprintf("/v1/jobs/%d/energy", job), nil)
	ops = append(ops, en)
	if !en.ok() {
		return 0, fol, ev, ops, fmt.Errorf("energy of job %d: status %d: %v", job, en.status, en.err)
	}
	if err := json.Unmarshal(en.body, &ev); err != nil {
		return 0, fol, ev, ops, fmt.Errorf("energy of job %d: %w", job, err)
	}
	if ev.Status != "done" {
		return 0, fol, ev, ops, fmt.Errorf("job %d ended %q", job, ev.Status)
	}
	return en.done.Sub(due), fol, ev, ops, nil
}

// loadOut is what one daemon load phase measured.
type loadOut struct {
	window   time.Duration
	sessions int64
	ack      [][]time.Duration // per producer, in send order
	fresh    []time.Duration
	results  []time.Duration
	creates  []time.Duration
	finishes []time.Duration
	energies []time.Duration
	cpu      time.Duration
	m0, m1   map[string]float64
	batches  int64
	jobs     int

	attempted, failed  int64
	ops, late, genLate int64
	lags               []time.Duration
	genCPU             time.Duration
	steal              float64
	schedOver          uint64
	schedTotal         uint64
	spans              []span
	audit              matchStats
	swarms             int
	sessionsPerBatch   float64
	windowsPerJob      float64
}

// windowStart holds the readings a timed window's figures start from.
type windowStart struct {
	cpu, self time.Duration
	sched     *metrics.Float64Histogram
	steal     stealMeter
}

// openWindow scrapes /metrics, restarts the daemon's peak RSS and takes
// the daemon CPU, generator CPU, scheduler and steal readings.
func (o *loadOut) openWindow(ctx context.Context, client *http.Client, d *daemonProc) (windowStart, error) {
	var w windowStart
	var err error
	if o.m0, err = scrape(ctx, client, d.base); err != nil {
		return w, err
	}
	if w.cpu, err = procCPU(d.pid); err != nil {
		return w, err
	}
	if err := resetPeakRSS(d.pid); err != nil {
		return w, err
	}
	w.sched, w.self, w.steal = schedLatencies(), selfCPU(), startSteal()
	return w, nil
}

// closeWindow takes the closing readings of a window openWindow opened.
func (o *loadOut) closeWindow(ctx context.Context, client *http.Client, d *daemonProc, w windowStart) error {
	o.steal = w.steal.share()
	o.genCPU = selfCPU() - w.self
	o.schedOver, o.schedTotal = waitsOver(w.sched, schedLatencies(), lateAfter)
	cpu, err := procCPU(d.pid)
	if err != nil {
		return err
	}
	o.cpu = cpu - w.cpu
	o.m1, err = scrape(ctx, client, d.base)
	return err
}

func (o *loadOut) absorb(c *conn) {
	o.ops += c.ops
	o.late += c.late
	o.genLate += c.genLate
	o.lags = append(o.lags, c.lags...)
	o.spans = append(o.spans, c.spans...)
}

// generatorCheck refuses a run whose generator fell behind on its own.
func (o *loadOut) generatorCheck() error {
	if share := ratio(float64(o.schedOver), float64(o.schedTotal)); share > maxSchedWaitShare {
		return fmt.Errorf("run invalid: %.1f%% of the generator's %d scheduling waits exceeded %v", share*100, o.schedTotal, lateAfter)
	}
	if use := o.genCPU.Seconds() / (o.window.Seconds() * float64(runtime.GOMAXPROCS(0))); use > maxGeneratorCPU {
		return fmt.Errorf("run invalid: the generator used %.0f%% of its CPUs", use*100)
	}
	return nil
}

// settleGap is the quiet time before each ingest job's finish: long
// enough for the daemon to drain the last requests, end a compaction
// and store the previous job's 30-day result.
const settleGap = time.Second

// producer is one ingest producer: its own trace, requests, connection
// and long-lived job.
type producer struct {
	t     *trace.Trace
	reqs  []request
	conn  *conn
	job   int
	root  int64 // the create operation's span id
	acked int
	ack   []time.Duration
	fail  int64
	sent  int64
}

// ingestLoad streams each producer's requests into its own long-lived
// ingest job, open loop at rate requests per second in total (closed
// loop when rate is 0), for dur;
// then every producer finishes its job and the results are checked
// against the oracle for exactly the acknowledged sessions. With
// followFirst a follower streams the first producer's snapshots.
func ingestLoad(ctx context.Context, d *daemonProc, traces []*trace.Trace, reqs [][]request, rate float64, dur time.Duration, followFirst, traced bool) (*loadOut, error) {
	out := &loadOut{}
	var nextOp atomic.Int64
	prods := make([]*producer, len(traces))
	for i := range prods {
		prods[i] = &producer{t: traces[i], reqs: reqs[i], conn: newConn(d.base, traced, &nextOp)}
		defer prods[i].conn.close()
	}
	for i, p := range prods {
		id, r, err := createJob(ctx, p.conn, time.Now(), p.t, fmt.Sprintf("producer-%d", i), replayWindow)
		if err != nil {
			return nil, err
		}
		p.job, p.root = id, r.op
		out.creates = append(out.creates, r.latency())
		out.attempted++
	}
	var fol *follower
	var folConn *conn
	if followFirst {
		folConn = newConn(d.base, false, &nextOp)
		defer folConn.close()
		var err error
		if fol, err = follow(ctx, folConn.client, d.base, prods[0].job); err != nil {
			return nil, err
		}
	}
	win, err := out.openWindow(ctx, prods[0].conn.client, d)
	if err != nil {
		return nil, err
	}

	t0 := time.Now().Add(10 * time.Millisecond)
	end := t0.Add(dur)
	dueOf := func(p, i int) time.Time {
		if rate <= 0 {
			// Closed loop: each request is due when the previous one is done.
			return later(t0, time.Now())
		}
		interval := time.Duration(float64(time.Second) * float64(len(prods)) / rate)
		return t0.Add(time.Duration(i)*interval + time.Duration(p)*interval/time.Duration(len(prods)))
	}
	var wg sync.WaitGroup
	lastDone := make([]time.Time, len(prods))
	for pi, p := range prods {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, rq := range p.reqs {
				due := dueOf(pi, i)
				if !due.Before(end) || ctx.Err() != nil {
					return
				}
				r := pushRequest(ctx, p.conn, due, p.job, p.root, rq)
				p.sent++
				p.ack = append(p.ack, r.latency())
				lastDone[pi] = r.done
				if !r.ok() {
					// Later batches would break the stream's order.
					p.fail++
					return
				}
				p.acked = i + 1
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	winEnd := t0
	for _, t := range lastDone {
		winEnd = later(winEnd, t)
	}
	out.window = winEnd.Sub(t0)
	if err := out.closeWindow(ctx, prods[0].conn.client, d, win); err != nil {
		return nil, err
	}

	// The producers finish one after another, each settleGap after the
	// end of the timed window or the previous result, once the daemon
	// has caught up and stored it, so every result is timed on its own.
	type settled struct {
		res time.Duration
		fol *follower
		ev  energyView
		ops []opResult
	}
	done := make([]settled, len(prods))
	due := end.Add(settleGap)
	for pi, p := range prods {
		var f *follower
		if pi == 0 {
			f = fol
		}
		res, f, ev, ops, err := settle(ctx, p.conn, due, p.job, p.root, f)
		if err != nil {
			return nil, err
		}
		done[pi] = settled{res, f, ev, ops}
		due = later(due, time.Now()).Add(settleGap)
	}
	for pi, p := range prods {
		s := done[pi]
		out.attempted += p.sent + int64(len(s.ops))
		out.failed += p.fail
		out.ack = append(out.ack, p.ack)
		out.results = append(out.results, s.res)
		out.finishes = append(out.finishes, s.ops[0].latency())
		out.energies = append(out.energies, s.ops[len(s.ops)-1].latency())
		out.batches += int64(p.acked)
		if p.acked == 0 {
			continue
		}
		n := p.reqs[p.acked-1].last
		out.sessions += int64(n)
		want, pol, err := oracle(prefixTrace(p.t, n))
		if err != nil {
			return nil, err
		}
		if err := compareTotals(s.fol.final.Swarms, s.ev.Tally, want); err != nil {
			return nil, fmt.Errorf("job %d (%d acknowledged sessions): %w", p.job, n, err)
		}
		out.audit.add(pol.stats())
		out.swarms += len(want.Swarms)
		out.windowsPerJob += float64(len(s.fol.recv)) / float64(len(prods))
	}
	if fol != nil {
		closeBy := closers(prods[0].reqs[:prods[0].acked], replayWindow, prods[0].t.HorizonSec)
		for k, i := range closeBy {
			if at, ok := fol.recv[k]; ok && i >= 0 {
				out.fresh = append(out.fresh, max(at.Sub(dueOf(0, i)), 0))
			}
		}
	}
	out.jobs = len(prods)
	out.sessionsPerBatch = ratio(float64(out.sessions), float64(out.batches))
	for _, p := range prods {
		out.absorb(p.conn)
	}
	return out, nil
}

// evening is one follow job's inputs: the schedule, its requests, the
// oracle's result and the oracle's matching counts.
type evening struct {
	t     *trace.Trace
	reqs  []request
	want  *sim.Result
	audit matchStats
}

// followLoad runs live evenings back to back for dur, cycling through
// evenings: each is one job, fed one window per request, open loop at
// rate requests per second, with one follower streaming its snapshots.
// Every job's result is checked against its evening's oracle.
func followLoad(ctx context.Context, d *daemonProc, evenings []evening, rate float64, dur time.Duration, traced bool) (*loadOut, error) {
	out := &loadOut{ack: make([][]time.Duration, 1)}
	var nextOp atomic.Int64
	prod := newConn(d.base, traced, &nextOp)
	defer prod.close()
	folConn := newConn(d.base, false, &nextOp)
	defer folConn.close()
	win, err := out.openWindow(ctx, prod.client, d)
	if err != nil {
		return nil, err
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for out.jobs == 0 || time.Since(start) < dur {
		ev := evenings[out.jobs%len(evenings)]
		id, cr, err := createJob(ctx, prod, time.Now(), ev.t, fmt.Sprintf("evening-%d", out.jobs), followWindow)
		if err != nil {
			return nil, err
		}
		out.creates = append(out.creates, cr.latency())
		fol, err := follow(ctx, folConn.client, d.base, id)
		if err != nil {
			return nil, err
		}
		anchor := time.Now()
		due := func(i int) time.Time { return anchor.Add(time.Duration(i+1) * interval) }
		for i, rq := range ev.reqs {
			r := pushRequest(ctx, prod, due(i), id, cr.op, rq)
			out.ack[0] = append(out.ack[0], r.latency())
			if !r.ok() {
				return nil, fmt.Errorf("evening job %d request %d: status %d: %v", id, i, r.status, r.err)
			}
			out.batches++
			out.sessions += int64(rq.last - rq.first)
		}
		res, fol, en, ops, err := settle(ctx, prod, due(len(ev.reqs)), id, cr.op, fol)
		if err != nil {
			return nil, err
		}
		if err := compareTotals(fol.final.Swarms, en.Tally, ev.want); err != nil {
			return nil, fmt.Errorf("evening job %d: %w", id, err)
		}
		out.results = append(out.results, res)
		out.finishes = append(out.finishes, ops[0].latency())
		out.energies = append(out.energies, ops[len(ops)-1].latency())
		for k, i := range closers(ev.reqs, followWindow, ev.t.HorizonSec) {
			if at, ok := fol.recv[k]; ok && i >= 0 {
				out.fresh = append(out.fresh, max(at.Sub(due(i)), 0))
			}
		}
		out.windowsPerJob += float64(len(fol.recv))
		out.swarms += len(ev.want.Swarms)
		out.audit.add(ev.audit)
		out.attempted += int64(len(ev.reqs)+1) + int64(len(ops))
		out.jobs++
	}
	out.window = time.Since(start)
	if err := out.closeWindow(ctx, prod.client, d, win); err != nil {
		return nil, err
	}
	out.windowsPerJob /= float64(out.jobs)
	out.sessionsPerBatch = ratio(float64(out.sessions), float64(out.batches))
	out.absorb(prod)
	return out, nil
}

// delta is a /metrics counter's growth over the phase.
func (o *loadOut) delta(name string) float64 { return o.m1[name] - o.m0[name] }

// auditLoad prints the traffic audit of a daemon phase.
func auditLoad(rep *report, o *loadOut) {
	reclaimed := o.delta("consumelocald_journal_compaction_reclaimed_bytes_total")
	written := o.delta("consumelocald_journal_size_bytes") + reclaimed
	rep.info("audit sessions=%d swarms=%d match_calls=%d peers_per_call=%.3f peers_max=%d solo_share=%.4f sessions_per_batch=%.1f windows_per_job=%.1f jobs=%d",
		o.sessions, o.swarms, o.audit.Calls, o.audit.peersPerCall(), o.audit.MaxPeers, o.audit.soloShare(),
		o.sessionsPerBatch, o.windowsPerJob, o.jobs)
	rep.info("audit journal_bytes_per_session=%.1f compactions=%.0f reclaimed_bytes=%.0f journal_size_bytes=%.0f fsync_mean_ms=%.3f",
		ratio(written, float64(o.sessions)), o.delta("consumelocald_journal_compactions_total"), reclaimed,
		o.m1["consumelocald_journal_size_bytes"],
		1000*ratio(o.delta("consumelocald_journal_fsync_seconds_sum"), o.delta("consumelocald_journal_fsync_seconds_count")))
	rep.info("env steal_share=%.3f over the timed window", o.steal)
	l50, l90, l99 := percentile(o.lags, 0.5), percentile(o.lags, 0.9), percentile(o.lags, 0.99)
	rep.info("generator ops=%d late_share=%.4f generator_late_share=%.4f lag_p50=%.3fms p90=%.3fms p99=%.3fms max=%.3fms cpu=%.3fs sched_waits_over_1ms=%d/%d", o.ops, ratio(float64(o.late), float64(o.ops)),
		ratio(float64(o.genLate), float64(o.ops)), l50.ms(), l90.ms(), l99.ms(), float64(o.lags[len(o.lags)-1])/1e6,
		o.genCPU.Seconds(), o.schedOver, o.schedTotal)
}

// setEndToEnd sets the end-to-end metrics of a daemon phase.
func setEndToEnd(rep *report, o *loadOut, d *daemonProc, setups []float64) error {
	rep.set("sessions_per_s", "sessions/s", float64(o.sessions)/o.window.Seconds(),
		fmt.Sprintf("%d acknowledged sessions over %.3fs", o.sessions, o.window.Seconds()))
	setTails(rep, "ack", o.ack, "session requests")
	setTails(rep, "freshness", [][]time.Duration{o.fresh}, "followed windows")
	var res []float64
	for _, r := range o.results {
		res = append(res, float64(r)/float64(time.Millisecond))
	}
	note := fmt.Sprintf("median of n=%d finish-to-result times", len(res))
	if len(res) <= 4 {
		note += fmt.Sprintf(" %.1f", res)
	}
	rep.set("result_ms", "ms", median(res), note)
	rep.set("cpu_us_per_session", "us", float64(o.cpu.Microseconds())/float64(o.sessions), "daemon user+system CPU over the timed window")
	rss, err := peakRSS(d.pid)
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", "MiB", rss, "daemon VmHWM")
	rep.set("setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups)))
	rep.info("failed_share %.6f ratio (%d of %d operations)", ratio(float64(o.failed), float64(o.attempted)), o.failed, o.attempted)
	rep.ops(o.attempted, o.failed)
	return nil
}

// setDaemonLayers sets the per-layer metrics read from the daemon and
// the client's spans of a traced phase.
func setDaemonLayers(rep *report, o *loadOut, d *daemonProc) {
	medMs := func(ds []time.Duration) (float64, string) {
		t := percentile(ds, 0.5)
		return t.ms(), fmt.Sprintf("median of n=%d", t.N)
	}
	v, n := medMs(o.creates)
	rep.set("consumelocald.create_ms", "ms", v, n+" job creations")
	v, n = medMs(o.finishes)
	rep.set("consumelocald.finish_ms", "ms", v, n+" finish requests")
	v, n = medMs(o.energies)
	rep.set("consumelocald.energy_ms", "ms", v, n+" /energy reads")
	rep.set("consumelocald.snapshot_emit_mean_ms", "ms",
		1000*ratio(o.delta("consumelocald_snapshot_emit_seconds_sum"), o.delta("consumelocald_snapshot_emit_seconds_count")),
		fmt.Sprintf("consumelocald_snapshot_emit_seconds over %.0f snapshots", o.delta("consumelocald_snapshot_emit_seconds_count")))
	rep.set("consumelocald.cpu_s", "s", o.cpu.Seconds(), "daemon CPU over the traced window")
	rep.set("consumelocald.start_ms", "ms", d.startMs, "spawn to healthy")
	fsyncs := o.delta("consumelocald_journal_fsync_seconds_count")
	rep.set("joblog.fsyncs_per_batch", "ratio", ratio(fsyncs, float64(o.batches)), fmt.Sprintf("%.0f fsyncs over %d batches", fsyncs, o.batches))
	rep.set("joblog.compactions", "count", o.delta("consumelocald_journal_compactions_total"), "online compactions in the traced window")
	rep.set("joblog.reclaimed_mb", "MiB", o.delta("consumelocald_journal_compaction_reclaimed_bytes_total")/(1<<20), "bytes compaction reclaimed")
	rep.set("joblog.size_mb", "MiB", o.m1["consumelocald_journal_size_bytes"]/(1<<20), "journal size at the end of the window")
	rep.info("extra joblog.fsync_mean_ms=%.4f consumelocald.settle_s=%.4f consumelocald.ingest_blocked_s=%.4f",
		1000*ratio(o.delta("consumelocald_journal_fsync_seconds_sum"), fsyncs),
		o.delta("consumelocal_replay_settle_seconds_total"), o.delta("consumelocald_ingest_blocked_seconds_total"))
	rep.set("bench.late_share", "ratio", ratio(float64(o.late), float64(o.ops)), fmt.Sprintf("of %d operations", o.ops))
	rep.spans = append(rep.spans, o.spans...)
}
