// Package swarm groups trace sessions into content swarms and sweeps their
// activity over time.
//
// A swarm is the set of sessions that can exchange content with each
// other. Following the paper (Section IV.B.1), swarm membership is
// restricted by three obstacle factors:
//
//   - content item: only viewers of the same item can share it;
//   - ISP friendliness: peers are only matched within one ISP, the
//     paper's lower-bound configuration (optional here, for ablation);
//   - bitrate class: a client cannot stream from a peer fetching a lower
//     quality representation (optional here, for ablation).
//
// The activity sweep turns a swarm's session list into a sequence of
// half-open time intervals during which the set of concurrently active
// sessions is constant. All downstream swarm quantities (demand, peer
// capacity, matching, energy) are piecewise constant over these intervals,
// so the simulator processes each interval in one step instead of ticking
// through Δτ windows — an exact optimisation for interval-aligned
// timestamps.
package swarm

import (
	"consumelocal/internal/trace"
)

// Key identifies one swarm. The zero value of the optional dimensions
// (ISP, Bitrate) means "not split on this dimension".
type Key struct {
	// Content is the content item the swarm shares.
	Content uint32 `json:"content"`
	// ISP is the ISP the swarm is restricted to, or AnyISP when swarms
	// span ISPs.
	ISP int16 `json:"isp"`
	// Bitrate is the bitrate class of the swarm, or AnyBitrate when swarms
	// mix bitrates.
	Bitrate int32 `json:"bitrate"`
}

// Sentinel values for unrestricted swarm dimensions.
const (
	// AnyISP marks a swarm that spans all ISPs.
	AnyISP int16 = -1
	// AnyBitrate marks a swarm that mixes bitrate classes.
	AnyBitrate int32 = -1
)

// Options control how sessions are grouped into swarms.
type Options struct {
	// RestrictISP keeps swarms within a single ISP (paper default).
	RestrictISP bool
	// SplitBitrate separates swarms by bitrate class (paper default).
	SplitBitrate bool
}

// DefaultOptions returns the paper's configuration: ISP-friendly swarms
// split by bitrate class.
func DefaultOptions() Options {
	return Options{RestrictISP: true, SplitBitrate: true}
}

// KeyOf computes the swarm key of a session under the given options.
func KeyOf(s trace.Session, opts Options) Key {
	k := Key{Content: s.ContentID, ISP: AnyISP, Bitrate: AnyBitrate}
	if opts.RestrictISP {
		k.ISP = int16(s.ISP)
	}
	if opts.SplitBitrate {
		k.Bitrate = int32(s.Bitrate)
	}
	return k
}

// Swarm is the session list of one swarm, ready for sweeping.
type Swarm struct {
	// Key identifies the swarm.
	Key Key
	// Sessions are the member sessions, in trace order.
	Sessions []trace.Session
}

// Group partitions the trace's sessions into swarms under the given
// options. The returned slice is sorted by key (content, ISP, bitrate) so
// that iteration order — and therefore every downstream aggregate — is
// deterministic. It is a convenience over a throwaway Grouper: callers
// that group repeatedly (the simulator does it once per run) should hold
// a Grouper and reuse its arena instead.
func Group(t *trace.Trace, opts Options) []*Swarm {
	return new(Grouper).Group(t, opts)
}

// Less orders keys lexicographically (content, ISP, bitrate) for
// deterministic iteration; exported so the streaming engine can merge
// sharded per-swarm results in the same order as Group.
func (k Key) Less(other Key) bool {
	if k.Content != other.Content {
		return k.Content < other.Content
	}
	if k.ISP != other.ISP {
		return k.ISP < other.ISP
	}
	return k.Bitrate < other.Bitrate
}

// Capacity returns the swarm's average number of concurrent users over the
// observation horizon: total session-seconds divided by the horizon. This
// is the empirical counterpart of the M/M/∞ capacity c = u·r the
// analytical model consumes.
func (sw *Swarm) Capacity(horizonSec int64) float64 {
	if horizonSec <= 0 {
		return 0
	}
	var userSeconds float64
	for _, s := range sw.Sessions {
		userSeconds += float64(s.DurationSec)
	}
	return userSeconds / float64(horizonSec)
}

// Bytes returns the total useful traffic of the swarm.
func (sw *Swarm) Bytes() float64 {
	var sum float64
	for _, s := range sw.Sessions {
		sum += s.Bytes()
	}
	return sum
}

// Interval is a half-open time span [From, To) during which a constant set
// of sessions is active.
type Interval struct {
	// From is the interval start in seconds since the trace epoch.
	From int64
	// To is the interval end (exclusive).
	To int64
	// Active indexes the sessions (into the swarm's session slice) active
	// throughout the interval.
	Active []int
}

// Seconds returns the interval length.
func (iv Interval) Seconds() float64 { return float64(iv.To - iv.From) }

// PeakConcurrency returns the maximum number of simultaneously active
// sessions in the swarm.
func (sw *Swarm) PeakConcurrency() int {
	peak := 0
	for _, iv := range new(Sweeper).Sweep(sw) {
		if len(iv.Active) > peak {
			peak = len(iv.Active)
		}
	}
	return peak
}

// ActiveSeconds returns the total time the swarm has at least one active
// session, and the time it has at least two (i.e. sharing is possible).
func (sw *Swarm) ActiveSeconds() (busy, sharing float64) {
	for _, iv := range new(Sweeper).Sweep(sw) {
		busy += iv.Seconds()
		if len(iv.Active) >= 2 {
			sharing += iv.Seconds()
		}
	}
	return busy, sharing
}
