package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"consumelocal/internal/sim"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a p99 needs at least 1000 samples, a median at least 20.
const minBeyond = 10

// failedSample stands in for an operation that failed or was refused.
// It sorts above every real latency, so a failure counts as missing any
// latency limit.
var failedSample = time.Duration(math.MaxInt64)

// tail is one reported percentile: the quantile actually used, the
// value there and the sample count behind it.
type tail struct {
	Q     float64
	Value time.Duration
	N     int
}

// supportedQuantile lowers want until at least minBeyond samples lie
// beyond it. Too few samples for even a median fall back to the median.
func supportedQuantile(n int, want float64) float64 {
	if n < 2*minBeyond {
		return 0.5
	}
	if max := 1 - float64(minBeyond)/float64(n); want > max {
		return max
	}
	return want
}

// percentile reports the nearest-rank quantile of samples, lowered by
// supportedQuantile. samples is sorted in place.
func percentile(samples []time.Duration, want float64) tail {
	n := len(samples)
	if n == 0 {
		return tail{Q: want}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	q := supportedQuantile(n, want)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return tail{Q: q, Value: samples[rank], N: n}
}

// ms converts a tail to milliseconds; a failed sample reads as the
// largest finite float, which is over any limit.
func (t tail) ms() float64 {
	if t.Value == failedSample {
		return math.MaxFloat64
	}
	return float64(t.Value) / float64(time.Millisecond)
}

// blockSize is the fewest samples a block of tail samples holds, so a
// block's p99 has at least ten samples beyond it.
const blockSize = 1000

// blockTail is the median over blocks of each block's quantile q.
// series are time-ordered sample streams (one per producer, or one for
// a run's replay passes); block i takes the i-th share of every series,
// and there are as many blocks as hold blockSize samples, at least one.
// A burst of interference then moves one block, not the run's figure.
func blockTail(series [][]time.Duration, q float64) (value float64, blocks, perBlock int) {
	total := 0
	for _, s := range series {
		total += len(s)
	}
	blocks = max(1, total/blockSize)
	var vals []float64
	for b := 0; b < blocks; b++ {
		var block []time.Duration
		for _, s := range series {
			block = append(block, s[b*len(s)/blocks:(b+1)*len(s)/blocks]...)
		}
		t := percentile(block, q)
		vals = append(vals, t.ms())
		perBlock = t.N
	}
	return median(vals), blocks, perBlock
}

// flatten joins series into one sample set.
func flatten(series [][]time.Duration) []time.Duration {
	var all []time.Duration
	for _, s := range series {
		all = append(all, s...)
	}
	return all
}

// median of float samples; sorts in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// span is one timed interval of the benchmark's own trace.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// interval is a half-open [Start, End) range in nanoseconds.
type interval struct{ Start, End int64 }

// selfTime is parent's duration minus the part of it covered by the
// union of children, which may overlap one another and stick out of
// the parent. children is sorted in place.
func selfTime(parent interval, children []interval) time.Duration {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	covered := int64(0)
	cur := interval{Start: -1, End: -1}
	flush := func() {
		if cur.End > cur.Start {
			covered += cur.End - cur.Start
		}
	}
	for _, c := range children {
		if c.Start < parent.Start {
			c.Start = parent.Start
		}
		if c.End > parent.End {
			c.End = parent.End
		}
		if c.End <= c.Start {
			continue
		}
		if cur.End < cur.Start || c.Start > cur.End {
			flush()
			cur = c
			continue
		}
		if c.End > cur.End {
			cur.End = c.End
		}
	}
	flush()
	return time.Duration(parent.End - parent.Start - covered)
}

// request is one producer operation of a daemon workload: a batch of
// sessions, optionally raising the watermark after it.
type request struct {
	first, last int   // session index range [first, last) in the stream
	maxStart    int64 // latest session start in the batch
	watermark   int64 // -1 when the request carries none
	body        []byte
}

// closers maps each reporting window to the request that closes it:
// window k ends at (k+1)·window, and the engine settles it once a
// session starting at or after that boundary, or a watermark at or past
// it, has arrived. Windows no request closes (those the final flush
// settles) map to -1. horizon clamps watermarks as the engine does.
func closers(reqs []request, window, horizon int64) []int {
	n := int((horizon + window - 1) / window)
	out := make([]int, n)
	for i := range out {
		out[i] = -1
	}
	k := 0
	frontier := int64(-1)
	for i, r := range reqs {
		if r.maxStart > frontier {
			frontier = r.maxStart
		}
		if wm := min(r.watermark, horizon); wm > frontier {
			frontier = wm
		}
		for k < n && frontier >= int64(k+1)*window {
			out[k] = i
			k++
		}
	}
	return out
}

// errMismatch marks a replay whose result differs from the oracle.
var errMismatch = errors.New("result differs from the sim.Run oracle")

// compareResults checks got against the oracle bit for bit: every
// swarm's key, session count and tally, and the grand total.
func compareResults(got, want *sim.Result) error {
	if len(got.Swarms) != len(want.Swarms) {
		return fmt.Errorf("%w: %d swarms, oracle has %d", errMismatch, len(got.Swarms), len(want.Swarms))
	}
	for i := range want.Swarms {
		g, w := got.Swarms[i], want.Swarms[i]
		if g.Key != w.Key || g.Sessions != w.Sessions || !sameTally(g.Tally, w.Tally) {
			return fmt.Errorf("%w: swarm %d (%+v) differs", errMismatch, i, w.Key)
		}
	}
	return compareTotals(len(got.Swarms), got.Total, want)
}

// compareTotals is the check a daemon job gets: its swarm count and
// total tally against the oracle.
func compareTotals(swarms int, total sim.Tally, want *sim.Result) error {
	if swarms != len(want.Swarms) {
		return fmt.Errorf("%w: %d swarms, oracle has %d", errMismatch, swarms, len(want.Swarms))
	}
	if !sameTally(total, want.Total) {
		return fmt.Errorf("%w: total %+v, oracle %+v", errMismatch, total, want.Total)
	}
	return nil
}

// sameTally compares two tallies bit for bit.
func sameTally(a, b sim.Tally) bool {
	if math.Float64bits(a.TotalBits) != math.Float64bits(b.TotalBits) ||
		math.Float64bits(a.ServerBits) != math.Float64bits(b.ServerBits) {
		return false
	}
	for i := range a.LayerBits {
		if math.Float64bits(a.LayerBits[i]) != math.Float64bits(b.LayerBits[i]) {
			return false
		}
	}
	return true
}
