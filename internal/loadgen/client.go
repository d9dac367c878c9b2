package loadgen

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// opGrace bounds a single HTTP operation beyond the run deadline, so
// in-flight requests finish (and are measured) instead of being torn
// down mid-body when the run clock expires.
const opGrace = 10 * time.Second

// jitter returns client id's backoff-jitter source, seeded by id so a
// run's retry schedule repeats.
func jitter(id int) *rand.Rand { return rand.New(rand.NewSource(1 + int64(id))) }

// jobInfo is the slice of the daemon's jobView the clients need.
type jobInfo struct {
	ID        int    `json:"id"`
	Status    string `json:"status"`
	Ingest    bool   `json:"ingest"`
	Watermark int64  `json:"watermark_sec"`
	Pushed    int64  `json:"pushed"`
}

// opResult is one measured HTTP operation.
type opResult struct {
	status     int
	body       []byte
	elapsed    time.Duration
	retryAfter time.Duration // parsed Retry-After, zero when absent
	err        error
}

// do fires one HTTP request with the operation grace period, reads the
// (bounded) body, and records the latency into hist. Error accounting
// is centralised here: 5xx, unexpected 4xx and transport failures land
// in their counters; 429 and 409 are counted as workload signals, and
// statuses listed in expect (a poll's 404 after eviction) are part of
// the protocol and counted nowhere.
func (r *run) do(ctx context.Context, method, rawURL, contentType, body string, hist func(float64), expect ...int) opResult {
	opCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), opGrace)
	defer cancel()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(opCtx, method, rawURL, rd)
	if err != nil {
		return opResult{err: err}
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	start := time.Now()
	resp, err := r.client.Do(req)
	elapsed := time.Since(start)
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			// During the chaos restart window the daemon is deliberately
			// dead: refused connections are the fault being injected,
			// not harness noise, and land in their own ledger so the
			// network counter keeps meaning "unexpected".
			if r.window.Load() {
				r.restartErrs.Add(1)
			} else {
				r.errNet.Add(1)
			}
		}
		return opResult{elapsed: elapsed, err: err}
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if hist != nil {
		hist(elapsed.Seconds())
	}
	var retryAfter time.Duration
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, perr := strconv.Atoi(v); perr == nil && secs >= 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
	}
	expected := false
	for _, code := range expect {
		if resp.StatusCode == code {
			expected = true
		}
	}
	switch {
	case expected:
	case resp.StatusCode >= 500:
		r.err5xx.Add(1)
	case resp.StatusCode == http.StatusTooManyRequests:
		r.quota429.Add(1)
	case resp.StatusCode == http.StatusConflict:
		r.conflict409.Add(1)
	case resp.StatusCode >= 400:
		r.err4xx.Add(1)
	}
	return opResult{status: resp.StatusCode, body: raw, elapsed: elapsed, retryAfter: retryAfter}
}

// ingestJobURL builds the job-opening URL for this run's shared trace.
func (r *run) ingestJobURL(name string, wall bool) string {
	q := url.Values{}
	q.Set("source", "ingest")
	q.Set("name", name)
	q.Set("horizon", fmt.Sprint(r.tr.HorizonSec))
	q.Set("users", fmt.Sprint(r.tr.NumUsers))
	q.Set("content", fmt.Sprint(r.tr.NumContent))
	q.Set("isps", fmt.Sprint(r.tr.NumISPs))
	q.Set("window", fmt.Sprint(windowSec))
	if wall {
		q.Set("watermark", "wall")
		q.Set("wall_interval", "50ms")
		// Walk the horizon in roughly half the run, so wall jobs both
		// settle windows from the clock and recycle within the run.
		rate := float64(r.tr.HorizonSec) / (r.cfg.Duration.Seconds() / 2)
		if rate < 1 {
			rate = 1
		}
		q.Set("wall_rate", fmt.Sprint(rate))
	}
	return r.base + "/v1/jobs?" + q.Encode()
}

// producer drives one live ingest client: open a job, replay the
// shared schedule batch by batch (paced), seal it, reopen. Non-wall
// producers advance the watermark with every batch, the way a healthy
// broadcast system does. Wall producers open with watermark=wall and
// never send one — the silent-producer workload — racing the daemon's
// clock with their pushes, so late batches legitimately collect 409
// ordering rejections whose accepted prefixes still count.
func (r *run) producer(ctx context.Context, id int, wall bool) {
	rng := jitter(id)
	attempt := 0
	for ctx.Err() == nil {
		if err := r.pace.wait(ctx); err != nil {
			return
		}
		res := r.do(ctx, http.MethodPost, r.ingestJobURL(fmt.Sprintf("loadgen-p%d", id), wall), "text/csv", "", r.createLat.Observe)
		if res.status != http.StatusAccepted {
			// Transport failure, quota 429, drain 503, or anything else
			// unexpected: back off (honouring Retry-After) before
			// re-offering, escalating while the refusals continue.
			transientRetry.sleep(ctx, rng, attempt, res.retryAfter)
			attempt++
			continue
		}
		attempt = 0
		var job jobInfo
		if err := json.Unmarshal(res.body, &job); err != nil {
			r.errNet.Add(1)
			continue
		}
		r.jobsOpened.Add(1)

		if alive := r.pushSchedule(ctx, rng, job.ID, wall); !alive {
			// The job died under us (idle watchdog, cancel); open a
			// fresh one.
			continue
		}

		// Seal the stream; the job drains to done on the daemon and is
		// eventually evicted. Unpaced: it is the producer's hang-up,
		// not offered load.
		if res := r.do(ctx, http.MethodPost, fmt.Sprintf("%s/v1/jobs/%d/finish", r.base, job.ID), "", "", nil,
			http.StatusNotFound, http.StatusConflict); res.status == http.StatusOK {
			r.jobsFinished.Add(1)
		}
	}
}

// pushSchedule replays the shared batch schedule into one ingest job,
// pacing every push. It returns false when the job disappeared
// mid-schedule and the producer should recycle without sealing. In
// chaos mode a failed push is re-offered through the retry policy —
// but only to a job that is still running, because after a crash the
// recovered job is settled and the honest move is to recycle, not to
// re-ingest sessions into a new job the ledger never promised.
func (r *run) pushSchedule(ctx context.Context, rng *rand.Rand, jobID int, wall bool) bool {
	sessionsURL := fmt.Sprintf("%s/v1/jobs/%d/sessions", r.base, jobID)
	// acked is the cumulative session count the daemon has acknowledged
	// to this producer — the client half of the reattach protocol. After
	// a crash, a resumed job's total_pushed above acked is journalled
	// progress the producer never saw an ack for.
	acked := int64(0)
	for _, b := range r.batches {
		if ctx.Err() != nil {
			return true
		}
		if err := r.pace.wait(ctx); err != nil {
			return true
		}
		pushURL := sessionsURL
		if !wall {
			pushURL = fmt.Sprintf("%s?watermark=%d", sessionsURL, b.boundary)
		}
		body := b.csv
		attempt := 0
		for {
			pres := r.do(ctx, http.MethodPost, pushURL, "text/csv", body, r.batchLat.Observe,
				http.StatusNotFound, http.StatusGone)
			if pres.status == http.StatusNotFound || pres.status == http.StatusGone {
				return false
			}
			if pres.status == http.StatusOK || pres.status == http.StatusConflict {
				// 409s report the prefix that landed before the ordering
				// check tripped; it was genuinely ingested.
				var out struct {
					Pushed *int64 `json:"pushed"`
					Total  *int64 `json:"total_pushed"`
				}
				if json.Unmarshal(pres.body, &out) == nil && out.Pushed != nil {
					r.sessionsAccepted.Add(*out.Pushed)
					if out.Total != nil {
						acked = *out.Total
					} else {
						acked += *out.Pushed
					}
				} else if pres.status == http.StatusConflict {
					// A 409 without a pushed count is not the ordering
					// conflict — it is a settled job (e.g. one recovered
					// as failed after a restart) refusing work outright.
					return false
				}
				break
			}
			// Transport failure or transient refusal. Outside chaos mode
			// the old behaviour stands: the error is ledgered and the
			// schedule moves on. In chaos mode the push is re-offered —
			// the batch is indeterminate (the daemon may have journalled
			// it before dying), which is exactly the slack the report's
			// ledger bound accounts for.
			if !r.cfg.Chaos || !retryable(pres) || attempt >= maxRetryAttempts || ctx.Err() != nil {
				break
			}
			if transientRetry.sleep(ctx, rng, attempt, pres.retryAfter) != nil {
				return true
			}
			attempt++
			if pres.err != nil {
				// The socket died mid-push — possibly the crash under
				// test. Probe before re-offering: a job recovered as
				// settled means recycle, while a job the restarted daemon
				// *resumed* is still running with its journalled progress
				// — including, possibly, the very batch whose ack was
				// lost. Reattach: credit the rows the journal kept, skip
				// them, and resend only the remainder.
				v, alive, ok := r.probeJob(ctx, rng, jobID)
				if !ok {
					continue
				}
				if !alive {
					return false
				}
				if skip := v.Pushed - acked; skip > 0 {
					r.sessionsAccepted.Add(skip)
					r.reattached.Add(1)
					acked = v.Pushed
					body = skipRows(body, skip)
					if body == "" {
						// The whole batch (watermark included — it rides
						// the final journalled chunk) survived the crash.
						break
					}
				}
			}
		}
	}
	return true
}

// skipRows drops the first n CSV rows of a batch body — the rows a
// resumed job's journal already accounts for.
func skipRows(csv string, n int64) string {
	for ; n > 0 && csv != ""; n-- {
		i := strings.IndexByte(csv, '\n')
		if i < 0 {
			return ""
		}
		csv = csv[i+1:]
	}
	return csv
}

// probeJob polls one job's view through the retry policy. ok is false
// when the daemon could not be reached at all; a missing (evicted) job
// reports not alive.
func (r *run) probeJob(ctx context.Context, rng *rand.Rand, jobID int) (v jobInfo, alive, ok bool) {
	res := r.doIdempotent(ctx, rng, http.MethodGet, fmt.Sprintf("%s/v1/jobs/%d", r.base, jobID), nil,
		http.StatusNotFound)
	if res.err != nil {
		return v, false, false
	}
	if res.status == http.StatusNotFound {
		return v, false, true
	}
	if res.status == http.StatusOK && json.Unmarshal(res.body, &v) == nil {
		return v, v.Status == "running", true
	}
	return v, false, false
}

// follower drives one snapshot client: find a running job, stream its
// NDJSON snapshots, and time the stream — first line, then every
// inter-line gap — into the snapshot histogram. When the stream ends
// (job settled, evicted, or cancelled) it picks another.
func (r *run) follower(ctx context.Context, id int) {
	rng := jitter(id)
	for ctx.Err() == nil {
		job, ok := r.pickJob(ctx, rng)
		if !ok {
			transientRetry.sleep(ctx, rng, 0, 0)
			continue
		}
		r.followOne(ctx, job)
	}
}

// pickJob lists the daemon's jobs and picks a random running one,
// preferring ingest jobs (they live long enough to follow).
func (r *run) pickJob(ctx context.Context, rng *rand.Rand) (jobInfo, bool) {
	res := r.doIdempotent(ctx, rng, http.MethodGet, r.base+"/v1/jobs", nil)
	if res.err != nil || res.status != http.StatusOK {
		return jobInfo{}, false
	}
	var jobs []jobInfo
	if err := json.Unmarshal(res.body, &jobs); err != nil {
		return jobInfo{}, false
	}
	var running, ingest []jobInfo
	for _, j := range jobs {
		if j.Status != "running" {
			continue
		}
		running = append(running, j)
		if j.Ingest {
			ingest = append(ingest, j)
		}
	}
	pool := ingest
	if len(pool) == 0 {
		pool = running
	}
	if len(pool) == 0 {
		return jobInfo{}, false
	}
	return pool[rng.Intn(len(pool))], true
}

// followOne streams one job's snapshots until the stream closes or the
// run ends. The request is tied to the run context directly — a
// follower mid-stream at the deadline just stops, it is not an error.
func (r *run) followOne(ctx context.Context, job jobInfo) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/jobs/%d/snapshots", r.base, job.ID), nil)
	if err != nil {
		return
	}
	start := time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			r.errNet.Add(1)
		}
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode >= 500 {
			r.err5xx.Add(1)
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	last := start
	for sc.Scan() {
		now := time.Now()
		r.snapLat.Observe(now.Sub(last).Seconds())
		last = now
	}
}

// traceClient drives one spooled-CSV submitter: upload the shared
// trace as a job body (paced), then poll it to completion. A 404 on
// poll is terminal success — the daemon evicted the finished job to
// make room, which is exactly what it should do under this churn.
func (r *run) traceClient(ctx context.Context, id int) {
	rng := jitter(id)
	attempt := 0
	for ctx.Err() == nil {
		if err := r.pace.wait(ctx); err != nil {
			return
		}
		res := r.do(ctx, http.MethodPost, r.base+"/v1/jobs?name=loadgen-t"+fmt.Sprint(id), "text/csv", r.traceBody, r.createLat.Observe)
		if res.status != http.StatusAccepted {
			transientRetry.sleep(ctx, rng, attempt, res.retryAfter)
			attempt++
			continue
		}
		attempt = 0
		var job jobInfo
		if err := json.Unmarshal(res.body, &job); err != nil {
			r.errNet.Add(1)
			continue
		}
		r.tracesSubmitted.Add(1)

		for ctx.Err() == nil {
			pres := r.doIdempotent(ctx, rng, http.MethodGet, fmt.Sprintf("%s/v1/jobs/%d", r.base, job.ID), nil,
				http.StatusNotFound)
			if pres.status == http.StatusNotFound {
				break
			}
			var v jobInfo
			if pres.status == http.StatusOK && json.Unmarshal(pres.body, &v) == nil {
				if v.Status != "running" {
					break
				}
			}
			select {
			case <-ctx.Done():
			case <-time.After(50 * time.Millisecond):
			}
		}
	}
}
