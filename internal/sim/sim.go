// Package sim implements the trace-driven simulator of the paper
// (Section IV.A): it replays a session trace, forms content swarms,
// matches concurrently active peers with a pluggable policy, and accounts
// delivered bits by source (CDN server vs peer) and by topology layer.
//
// Where the paper steps through fixed Δτ = 10 s windows, this simulator
// sweeps each swarm's piecewise-constant activity intervals (see package
// swarm): within an interval the active set — and therefore the matching —
// is constant, so processing the interval in one step is exact and far
// cheaper than ticking. The paper's per-window peer-capacity bound
// ∆Tp ≤ (L−1)·q·∆τ (Eq. 2) translates directly to the interval: the
// (L−1)/L share of the active set's total upload capacity.
//
// Energy is not computed during simulation; the simulator records traffic
// tallies that are priced afterwards under any energy parameter set (see
// Evaluate), keeping a single simulation reusable across energy models.
package sim

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"consumelocal/internal/matching"
	"consumelocal/internal/swarm"
	"consumelocal/internal/topology"
	"consumelocal/internal/trace"
)

// Config parameterises a simulation run.
type Config struct {
	// Policy matches peers within activity intervals. Defaults to
	// matching.LocalityFirst.
	Policy matching.Policy
	// Swarm controls swarm formation (ISP restriction, bitrate split).
	// Defaults to the paper's configuration.
	Swarm swarm.Options
	// Topology is the ISP metropolitan tree used to map session exchange
	// points onto PoPs. Defaults to topology.DefaultLondon().
	Topology *topology.Tree
	// UploadRatio is q/β: each session's upload bandwidth as a fraction of
	// its own streaming bitrate. Ignored when UploadBps > 0.
	UploadRatio float64
	// UploadBps, when positive, gives every user the same absolute upload
	// bandwidth in bits/s regardless of bitrate.
	UploadBps float64
	// DisablePaperBudget lifts the paper's (L−1)·q per-window cap on peer
	// traffic (Eq. 2). The default (false) applies the cap.
	DisablePaperBudget bool
	// TrackUsers enables per-user byte accounting (needed for the carbon
	// credit analysis, Fig. 6) at the cost of extra memory.
	TrackUsers bool
	// SeedRetentionSec extends every session with a post-playback seeding
	// window: for this many seconds after a user finishes watching, its
	// upload capacity stays available to the swarm while it demands
	// nothing. This models the cache-and-seed schemes the paper lists as
	// future work (AntFarm-style managed seeding, Wi-Stitch edge caches).
	// Zero (the default) reproduces the paper's watch-while-share model.
	SeedRetentionSec int64
	// QuantizeTickSec reproduces the paper's fixed time stepping exactly:
	// session boundaries are snapped outward to multiples of Δτ (the
	// paper uses Δτ = 10 s), so a user present for any part of a window
	// counts as active — and downloading a full window buffer — for the
	// whole window, as in the paper's simulator. Zero (the default) keeps
	// exact session boundaries, which is equivalent in the limit Δτ → 0.
	QuantizeTickSec int64
	// ParticipationRate is the fraction of users who contribute upload
	// capacity. The paper's conclusion notes that as little as 30% of
	// Akamai NetSession users participate by uploading; non-participants
	// here still download from peers but never upload (their q is 0).
	// Participation is assigned per user by a deterministic hash, so the
	// same users participate across runs and configurations. Zero or
	// values >= 1 mean full participation (the paper's assumption).
	ParticipationRate float64
	// UploadTiers, when non-empty, draws each user's absolute upload
	// bandwidth from a weighted access-technology mix (e.g. ADSL / FTTC /
	// FTTP) instead of the uniform UploadRatio/UploadBps. Assignment is
	// per user by deterministic hash. Overrides UploadRatio and UploadBps.
	UploadTiers []UploadTier
}

// UploadTier is one access technology class in a heterogeneous upload
// bandwidth mix.
type UploadTier struct {
	// Name labels the tier in reports (e.g. "adsl").
	Name string
	// Bps is the tier's upload bandwidth in bits per second.
	Bps float64
	// Weight is the tier's share of the user population.
	Weight float64
}

// UKBroadbandTiers returns an upload mix shaped like the UK fixed
// broadband market around the paper's study period: a large ADSL base
// (~1 Mb/s up), a growing FTTC share (~8 Mb/s up) and an FTTP minority
// (~30 Mb/s up). The mean (~4.3 Mb/s) matches the Ofcom average upload
// speed the paper quotes in Section IV.B.1.
func UKBroadbandTiers() []UploadTier {
	return []UploadTier{
		{Name: "adsl", Bps: 1.0e6, Weight: 0.62},
		{Name: "fttc", Bps: 8.0e6, Weight: 0.35},
		{Name: "fttp", Bps: 30.0e6, Weight: 0.03},
	}
}

// DefaultConfig returns the paper's simulation configuration with the
// given q/β ratio.
func DefaultConfig(uploadRatio float64) Config {
	return Config{
		Policy:      matching.LocalityFirst{},
		Swarm:       swarm.DefaultOptions(),
		Topology:    topology.DefaultLondon(),
		UploadRatio: uploadRatio,
		TrackUsers:  true,
	}
}

// withDefaults fills zero-value fields.
func (c Config) withDefaults() Config {
	if c.Policy == nil {
		c.Policy = matching.LocalityFirst{}
	}
	if c.Topology == nil {
		c.Topology = topology.DefaultLondon()
	}
	return c
}

// WithDefaults returns a copy of the configuration with zero-valued
// optional fields (policy, topology) filled in exactly as Run does
// internally. The streaming engine (internal/engine) applies it so a
// Config means the same thing replayed out-of-core as it does in batch.
func (c Config) WithDefaults() Config { return c.withDefaults() }

// Validate rejects configurations the simulator cannot run; exported for
// the streaming engine, which shares Run's acceptance rules.
func (c Config) Validate() error { return c.validate() }

// PeerEndpoint maps a session onto its matching endpoint under the
// configuration's topology. Exchange identifiers are namespaced per ISP:
// when a swarm spans ISPs (ablation mode), peers from different ISPs can
// never share an exchange or PoP — their traffic meets at the core,
// modelling inter-ISP exchange through the metro core / peering fabric.
// The topology must be set (use WithDefaults).
func (c Config) PeerEndpoint(s trace.Session, key swarm.Key) matching.Peer {
	exchange := int(s.Exchange)
	pop := c.Topology.PoPOf(exchange)
	if key.ISP == swarm.AnyISP {
		stride := c.Topology.Exchanges()
		popStride := c.Topology.PoPs()
		exchange += int(s.ISP) * stride
		pop += int(s.ISP) * popStride
	}
	return matching.Peer{User: s.UserID, Exchange: exchange, PoP: pop}
}

// UploadBpsOf returns a session's upload bandwidth in bits/s under the
// configuration — zero for users who do not participate in uploading,
// the tier bandwidth under an UploadTiers mix, otherwise the absolute or
// bitrate-relative setting.
func (c Config) UploadBpsOf(s trace.Session) float64 {
	if !c.participates(s.UserID) {
		return 0
	}
	if tier := c.tierOf(s.UserID); tier >= 0 {
		return c.UploadTiers[tier].Bps
	}
	if c.UploadBps > 0 {
		return c.UploadBps
	}
	return c.UploadRatio * s.Bitrate.BitsPerSecond()
}

// PeerBudget returns the paper's Eq. 2 cap on an interval's peer-to-peer
// traffic: the (L−1)/L share of the active set's total upload capacity
// (sumCaps, in bits over the interval; n is the active set size). A
// negative return means unbounded — the DisablePaperBudget ablation or an
// empty interval.
func (c Config) PeerBudget(sumCaps float64, n int) float64 {
	if c.DisablePaperBudget || n == 0 {
		return -1
	}
	return sumCaps * float64(n-1) / float64(n)
}

// validate rejects configurations the simulator cannot run.
func (c Config) validate() error {
	// NaN passes every sign check below and would turn offload into a
	// silent 0%; an infinite rate has no meaning either.
	if !finite(c.UploadRatio) || !finite(c.UploadBps) || !finite(c.ParticipationRate) {
		return errors.New("sim: upload ratio, upload bandwidth and participation rate must be finite")
	}
	if c.UploadBps < 0 {
		return errors.New("sim: upload bandwidth must be non-negative")
	}
	if c.UploadBps == 0 && c.UploadRatio <= 0 && len(c.UploadTiers) == 0 {
		return errors.New("sim: need a positive upload ratio, absolute bandwidth, or upload tiers")
	}
	if c.ParticipationRate < 0 {
		return errors.New("sim: participation rate must be non-negative")
	}
	var tierWeight float64
	for _, tier := range c.UploadTiers {
		if !finite(tier.Bps) || !finite(tier.Weight) || tier.Bps < 0 || tier.Weight < 0 {
			return errors.New("sim: upload tiers must have finite non-negative bandwidth and weight")
		}
		tierWeight += tier.Weight
	}
	if len(c.UploadTiers) > 0 && tierWeight <= 0 {
		return errors.New("sim: upload tiers need positive total weight")
	}
	return nil
}

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// tierOf assigns a user to an upload tier by deterministic hash,
// proportionally to tier weights. It returns -1 when no tiers are
// configured.
func (c Config) tierOf(user uint32) int {
	if len(c.UploadTiers) == 0 {
		return -1
	}
	var total float64
	for _, t := range c.UploadTiers {
		total += t.Weight
	}
	// Reuse the participation hash family with a different stream salt.
	z := user ^ 0x51ed2701
	z += 0x9e3779b9
	z ^= z >> 16
	z *= 0x85ebca6b
	z ^= z >> 13
	z *= 0xc2b2ae35
	z ^= z >> 16
	x := float64(z) / float64(1<<32) * total
	var cum float64
	for i, t := range c.UploadTiers {
		cum += t.Weight
		if x < cum {
			return i
		}
	}
	return len(c.UploadTiers) - 1
}

// participates reports whether a user contributes upload capacity under
// the configured participation rate, by stateless hash: stable across
// runs, independent of session order.
func (c Config) participates(user uint32) bool {
	if c.ParticipationRate <= 0 || c.ParticipationRate >= 1 {
		return true
	}
	// SplitMix32-style finaliser onto [0, 1).
	z := user + 0x9e3779b9
	z ^= z >> 16
	z *= 0x85ebca6b
	z ^= z >> 13
	z *= 0xc2b2ae35
	z ^= z >> 16
	return float64(z)/float64(1<<32) < c.ParticipationRate
}

// SwarmStats is the per-swarm outcome of a run.
type SwarmStats struct {
	// Key identifies the swarm.
	Key swarm.Key `json:"key"`
	// Capacity is the swarm's empirical capacity (average concurrent
	// users over the trace horizon).
	Capacity float64 `json:"capacity"`
	// Sessions is the number of member sessions.
	Sessions int `json:"sessions"`
	// Tally is the swarm's delivered-traffic accounting.
	Tally Tally `json:"tally"`
}

// UserStats is the per-user byte ledger used by the carbon credit
// analysis.
type UserStats struct {
	// DownloadedBits is everything the user watched.
	DownloadedBits float64 `json:"downloaded_bits"`
	// FromPeersBits is the share of DownloadedBits served by peers.
	FromPeersBits float64 `json:"from_peers_bits"`
	// UploadedBits is what the user contributed to other peers.
	UploadedBits float64 `json:"uploaded_bits"`
}

// Result is the complete outcome of one simulation run.
type Result struct {
	// Swarms holds per-swarm statistics in deterministic key order.
	Swarms []SwarmStats `json:"swarms"`
	// Days holds per-day, per-ISP tallies: Days[d][isp]. The ISP index of
	// ISP-unrestricted swarms is each downloading session's own ISP.
	Days [][]Tally `json:"days"`
	// Users maps user ID to its byte ledger; nil unless Config.TrackUsers.
	Users map[uint32]*UserStats `json:"users,omitempty"`
	// Total aggregates the whole run.
	Total Tally `json:"total"`
	// PolicyName records the matching policy used.
	PolicyName string `json:"policy"`
}

// Run simulates the trace under the configuration, one swarm after
// another in key order. It is the serial reference every replay engine
// is checked against: its per-swarm tallies and total define the
// bit-for-bit contract.
func Run(t *trace.Trace, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}

	grouper := grouperPool.Get().(*swarm.Grouper)
	defer grouperPool.Put(grouper)
	swarms := grouper.Group(t, cfg.Swarm)
	days := t.Days()

	res := &Result{
		Swarms:     make([]SwarmStats, 0, len(swarms)),
		Days:       newDayGrid(days, t.NumISPs),
		PolicyName: cfg.Policy.Name(),
	}
	if cfg.TrackUsers {
		res.Users = make(map[uint32]*UserStats)
	}

	eng := &engine{cfg: cfg, trace: t, result: res, booker: Booker{Days: res.Days, Users: res.Users}}
	for _, sw := range swarms {
		if err := eng.runSwarm(sw); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// newDayGrid allocates the [day][isp] tally grid.
func newDayGrid(days, isps int) [][]Tally {
	grid := make([][]Tally, days)
	for d := range grid {
		grid[d] = make([]Tally, isps)
	}
	return grid
}

// grouperPool recycles swarm-grouping arenas across runs: a run groups
// once, but benchmark loops and long-lived services replay many traces,
// and the grouping map, headers and session arena are the largest
// per-run allocations left after the sweep and matching scratch became
// reusable.
var grouperPool = sync.Pool{New: func() any { return new(swarm.Grouper) }}

// engine carries the per-run state through swarm processing.
type engine struct {
	cfg    Config
	trace  *trace.Trace
	result *Result
	booker Booker

	// sweeper holds the per-swarm sweep scratch (event slice, active
	// set, interval buffer and arena), reused across every swarm of the
	// run.
	sweeper swarm.Sweeper
	// alloc is the engine-owned matching result, recycled through
	// Policy.MatchInto each interval.
	alloc matching.Allocation

	// scratch buffers reused across intervals to avoid churn.
	peers    []matching.Peer
	demands  []float64
	caps     []float64
	accounts []Account

	// augment/quantize scratch, reused across swarms: rewritten member
	// lists and the swarm headers wrapping them.
	members   []trace.Session
	seeding   []bool
	quantized []trace.Session
	augSwarm  swarm.Swarm
	quantSw   swarm.Swarm
}

// runSwarm sweeps one swarm and accumulates its intervals.
func (e *engine) runSwarm(sw *swarm.Swarm) error {
	stats := SwarmStats{
		Key:      sw.Key,
		Capacity: sw.Capacity(e.trace.HorizonSec),
		Sessions: len(sw.Sessions),
	}

	sweepSwarm, seeding := e.augment(sw)
	for _, iv := range e.sweeper.Sweep(sweepSwarm) {
		if err := e.runInterval(sweepSwarm, seeding, iv, &stats); err != nil {
			return err
		}
	}

	e.result.Swarms = append(e.result.Swarms, stats)
	e.result.Total.Add(stats.Tally)
	return nil
}

// augment prepares the swarm the engine actually sweeps: session
// boundaries are optionally snapped to Δτ ticks (QuantizeTickSec) and
// post-playback seeding members are appended (SeedRetentionSec). The
// returned bool slice marks, per member of the returned swarm, whether it
// is a demand-free seeder; it is nil when no seeders were added.
func (e *engine) augment(sw *swarm.Swarm) (*swarm.Swarm, []bool) {
	sw = e.quantize(sw)
	if e.cfg.SeedRetentionSec <= 0 {
		return sw, nil
	}
	members := e.members[:0]
	seeding := e.seeding[:0]
	for _, s := range sw.Sessions {
		members = append(members, s)
		seeding = append(seeding, false)

		seeder := s
		seeder.StartSec = s.EndSec()
		retention := e.cfg.SeedRetentionSec
		if seeder.StartSec+retention > e.trace.HorizonSec {
			retention = e.trace.HorizonSec - seeder.StartSec
		}
		if retention <= 0 {
			continue
		}
		seeder.DurationSec = int32(retention)
		members = append(members, seeder)
		seeding = append(seeding, true)
	}
	e.members, e.seeding = members, seeding
	e.augSwarm = swarm.Swarm{Key: sw.Key, Sessions: members}
	return &e.augSwarm, seeding
}

// quantize snaps session boundaries outward to QuantizeTickSec ticks,
// reproducing the paper's per-window occupancy counting. Sessions already
// aligned to ticks are returned unchanged (same backing array).
func (e *engine) quantize(sw *swarm.Swarm) *swarm.Swarm {
	tick := e.cfg.QuantizeTickSec
	if tick <= 0 {
		return sw
	}
	aligned := true
	for _, s := range sw.Sessions {
		if s.StartSec%tick != 0 || s.EndSec()%tick != 0 {
			aligned = false
			break
		}
	}
	if aligned {
		return sw
	}
	if cap(e.quantized) < len(sw.Sessions) {
		e.quantized = make([]trace.Session, len(sw.Sessions))
	}
	members := e.quantized[:len(sw.Sessions)]
	for i, s := range sw.Sessions {
		start := s.StartSec / tick * tick
		end := (s.EndSec() + tick - 1) / tick * tick
		s.StartSec = start
		s.DurationSec = int32(end - start)
		members[i] = s
	}
	e.quantSw = swarm.Swarm{Key: sw.Key, Sessions: members}
	return &e.quantSw
}

// runInterval matches one activity interval and books the outcome.
func (e *engine) runInterval(sw *swarm.Swarm, seeding []bool, iv swarm.Interval, stats *SwarmStats) error {
	n := len(iv.Active)
	w := iv.Seconds()
	e.resize(n)

	var sumCaps float64
	for slot, idx := range iv.Active {
		s := sw.Sessions[idx]
		e.peers[slot] = e.cfg.PeerEndpoint(s, sw.Key)
		e.accounts[slot] = Account{ISP: int(s.ISP), Ledger: e.booker.Ledger(s.UserID)}
		if seeding != nil && seeding[idx] {
			e.demands[slot] = 0
		} else {
			e.demands[slot] = s.Bitrate.BitsPerSecond() * w
		}
		cap := e.cfg.UploadBpsOf(s) * w
		e.caps[slot] = cap
		sumCaps += cap
	}
	// Eq. 2: one peer's share of the swarm's upload capacity is spent
	// pulling novel chunks from the server, leaving the (L−1)/L share
	// for sharing — exactly (L−1)·q for uniform per-peer capacity q,
	// and its natural generalisation when capacities differ (e.g.
	// partial upload participation).
	budget := e.cfg.PeerBudget(sumCaps, n)

	if err := e.cfg.Policy.MatchInto(&e.alloc, e.peers[:n], e.demands[:n], e.caps[:n], budget); err != nil {
		return fmt.Errorf("sim: match swarm %+v interval [%d,%d): %w", sw.Key, iv.From, iv.To, err)
	}

	stats.Tally.Add(e.booker.BookInterval(iv, &e.alloc, e.demands, e.accounts))
	return nil
}

// resize grows the scratch buffers to hold n entries, at least doubling
// their capacity so a swarm growing one member at a time does not
// reallocate them at every new size.
func (e *engine) resize(n int) {
	if cap(e.peers) < n {
		c := max(n, 2*cap(e.peers))
		e.peers = make([]matching.Peer, n, c)
		e.demands = make([]float64, n, c)
		e.caps = make([]float64, n, c)
		e.accounts = make([]Account, n, c)
	}
	e.peers = e.peers[:n]
	e.demands = e.demands[:n]
	e.caps = e.caps[:n]
	e.accounts = e.accounts[:n]
}
