package sim

import (
	"math"
	"testing"
	"time"

	"consumelocal/internal/energy"
	"consumelocal/internal/matching"
	"consumelocal/internal/swarm"
	"consumelocal/internal/trace"
)

const eps = 1e-6

func session(user, content uint32, isp uint8, exchange uint16, start int64, dur int32, br trace.BitrateClass) trace.Session {
	return trace.Session{
		UserID:      user,
		ContentID:   content,
		ISP:         isp,
		Exchange:    exchange,
		StartSec:    start,
		DurationSec: dur,
		Bitrate:     br,
	}
}

func makeTrace(horizon int64, sessions ...trace.Session) *trace.Trace {
	return &trace.Trace{
		Name:       "test",
		Epoch:      time.Unix(0, 0).UTC(),
		HorizonSec: horizon,
		NumUsers:   1000,
		NumContent: 100,
		NumISPs:    5,
		Sessions:   sessions,
	}
}

func TestConfigValidation(t *testing.T) {
	tr := makeTrace(3600, session(0, 0, 0, 0, 0, 60, trace.BitrateSD))
	if _, err := Run(tr, Config{}); err == nil {
		t.Error("config without upload bandwidth should be rejected")
	}
	if _, err := Run(tr, Config{UploadBps: -5}); err == nil {
		t.Error("negative upload bandwidth should be rejected")
	}
	// NaN passes a sign check, so each non-finite value needs its own
	// refusal; a run would otherwise report 0% offload or nonsense.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, cfg := range map[string]Config{
			"ratio":         DefaultConfig(bad),
			"bps":           {UploadRatio: 1, UploadBps: bad},
			"participation": {UploadRatio: 1, ParticipationRate: bad},
			"tier bps":      {UploadTiers: []UploadTier{{Bps: 1e6, Weight: 1}, {Bps: bad, Weight: 1}}},
			"tier weight":   {UploadTiers: []UploadTier{{Bps: 1e6, Weight: 1}, {Bps: 2e6, Weight: bad}}},
		} {
			if _, err := Run(tr, cfg); err == nil {
				t.Errorf("%s %v should be rejected", name, bad)
			}
		}
	}
}

func TestRunRejectsInvalidTrace(t *testing.T) {
	tr := makeTrace(3600, session(0, 0, 0, 0, 0, -60, trace.BitrateSD))
	if _, err := Run(tr, DefaultConfig(1)); err == nil {
		t.Error("invalid trace should be rejected")
	}
}

func TestLoneViewerAllServer(t *testing.T) {
	tr := makeTrace(3600, session(0, 0, 0, 0, 0, 600, trace.BitrateSD))
	res, err := Run(tr, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	wantBits := 1.5e6 * 600
	if math.Abs(res.Total.TotalBits-wantBits) > eps {
		t.Errorf("total bits = %v, want %v", res.Total.TotalBits, wantBits)
	}
	if res.Total.PeerBits() != 0 {
		t.Errorf("lone viewer shared %v bits, want 0", res.Total.PeerBits())
	}
	if math.Abs(res.Total.ServerBits-wantBits) > eps {
		t.Errorf("server bits = %v, want all", res.Total.ServerBits)
	}
}

func TestTwoOverlappingViewersShare(t *testing.T) {
	// Same content, ISP, bitrate, exchange; fully overlapping for 600 s.
	tr := makeTrace(3600,
		session(0, 0, 0, 7, 0, 600, trace.BitrateSD),
		session(1, 0, 0, 7, 0, 600, trace.BitrateSD),
	)
	res, err := Run(tr, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	// Paper budget: (L−1)·q·w = 1 × 1.5 Mb/s × 600 s.
	wantPeer := 1.5e6 * 600.0
	if math.Abs(res.Total.PeerBits()-wantPeer) > eps*wantPeer {
		t.Errorf("peer bits = %v, want %v", res.Total.PeerBits(), wantPeer)
	}
	// All shared traffic is exchange-local.
	if math.Abs(res.Total.LayerBits[energy.LayerExchange.Index()]-wantPeer) > eps*wantPeer {
		t.Errorf("exchange bits = %v, want %v", res.Total.LayerBits[0], wantPeer)
	}
	// Offload = half the total demand.
	if math.Abs(res.Total.Offload()-0.5) > 1e-9 {
		t.Errorf("offload = %v, want 0.5", res.Total.Offload())
	}
}

func TestPaperBudgetCanBeDisabled(t *testing.T) {
	tr := makeTrace(3600,
		session(0, 0, 0, 7, 0, 600, trace.BitrateSD),
		session(1, 0, 0, 7, 0, 600, trace.BitrateSD),
	)
	cfg := DefaultConfig(1)
	cfg.DisablePaperBudget = true
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Without the (L−1) cap both peers serve each other fully.
	if math.Abs(res.Total.Offload()-1.0) > 1e-9 {
		t.Errorf("offload = %v, want 1.0 without the paper budget", res.Total.Offload())
	}
}

func TestNoSharingAcrossContent(t *testing.T) {
	tr := makeTrace(3600,
		session(0, 0, 0, 7, 0, 600, trace.BitrateSD),
		session(1, 1, 0, 7, 0, 600, trace.BitrateSD),
	)
	res, err := Run(tr, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.PeerBits() != 0 {
		t.Errorf("different content items should not share: %v", res.Total.PeerBits())
	}
}

func TestNoSharingAcrossISPsWhenRestricted(t *testing.T) {
	tr := makeTrace(3600,
		session(0, 0, 0, 7, 0, 600, trace.BitrateSD),
		session(1, 0, 1, 7, 0, 600, trace.BitrateSD),
	)
	res, err := Run(tr, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.PeerBits() != 0 {
		t.Errorf("ISP-friendly swarms must not cross ISPs: %v", res.Total.PeerBits())
	}
}

func TestCrossISPSharingInCityWideMode(t *testing.T) {
	tr := makeTrace(3600,
		session(0, 0, 0, 7, 0, 600, trace.BitrateSD),
		session(1, 0, 1, 7, 0, 600, trace.BitrateSD),
	)
	cfg := DefaultConfig(1)
	cfg.Swarm = swarm.Options{RestrictISP: false, SplitBitrate: true}
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.PeerBits() == 0 {
		t.Fatal("city-wide swarms should share across ISPs")
	}
	// Cross-ISP pairs must be priced at the core layer even though both
	// sessions use the same exchange index (namespaced per ISP).
	if got := res.Total.LayerBits[energy.LayerCore.Index()]; got != res.Total.PeerBits() {
		t.Errorf("cross-ISP traffic priced at %v core bits of %v total peer bits",
			got, res.Total.PeerBits())
	}
}

func TestNoSharingAcrossBitratesWhenSplit(t *testing.T) {
	tr := makeTrace(3600,
		session(0, 0, 0, 7, 0, 600, trace.BitrateSD),
		session(1, 0, 0, 7, 0, 600, trace.BitrateHD),
	)
	res, err := Run(tr, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.PeerBits() != 0 {
		t.Errorf("bitrate-split swarms must not mix bitrates: %v", res.Total.PeerBits())
	}
}

func TestUploadRatioScalesSharing(t *testing.T) {
	mk := func() *trace.Trace {
		return makeTrace(3600,
			session(0, 0, 0, 7, 0, 600, trace.BitrateSD),
			session(1, 0, 0, 7, 0, 600, trace.BitrateSD),
			session(2, 0, 0, 7, 0, 600, trace.BitrateSD),
		)
	}
	lo, err := Run(mk(), DefaultConfig(0.2))
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Run(mk(), DefaultConfig(0.8))
	if err != nil {
		t.Fatal(err)
	}
	if lo.Total.Offload() >= hi.Total.Offload() {
		t.Errorf("offload should grow with q/β: %v vs %v", lo.Total.Offload(), hi.Total.Offload())
	}
	// With ratio 0.2 and L=3: peer traffic = 2·(0.2β)·w, demand 3β·w.
	wantLo := 2.0 * 0.2 / 3.0
	if math.Abs(lo.Total.Offload()-wantLo) > 1e-9 {
		t.Errorf("offload at 0.2 = %v, want %v", lo.Total.Offload(), wantLo)
	}
}

func TestAbsoluteUploadBandwidth(t *testing.T) {
	tr := makeTrace(3600,
		session(0, 0, 0, 7, 0, 600, trace.BitrateSD),
		session(1, 0, 0, 7, 0, 600, trace.BitrateSD),
	)
	cfg := DefaultConfig(0)
	cfg.UploadBps = 750e3 // half of SD bitrate
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantPeer := 750e3 * 600.0 // (L−1)·q·w
	if math.Abs(res.Total.PeerBits()-wantPeer) > eps*wantPeer {
		t.Errorf("peer bits = %v, want %v", res.Total.PeerBits(), wantPeer)
	}
}

func TestPartialOverlapAccounting(t *testing.T) {
	// Sessions overlap for 300 of their 600 seconds.
	tr := makeTrace(7200,
		session(0, 0, 0, 7, 0, 600, trace.BitrateSD),
		session(1, 0, 0, 7, 300, 600, trace.BitrateSD),
	)
	res, err := Run(tr, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	wantTotal := 1.5e6 * 1200.0
	if math.Abs(res.Total.TotalBits-wantTotal) > eps*wantTotal {
		t.Errorf("total bits = %v, want %v", res.Total.TotalBits, wantTotal)
	}
	wantPeer := 1.5e6 * 300.0 // sharing only during the overlap
	if math.Abs(res.Total.PeerBits()-wantPeer) > eps*wantPeer {
		t.Errorf("peer bits = %v, want %v", res.Total.PeerBits(), wantPeer)
	}
}

func TestConservationOnGeneratedTrace(t *testing.T) {
	cfg := trace.DefaultGeneratorConfig(0.001)
	cfg.Days = 5
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(tr, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}

	// Total = server + peers.
	if math.Abs(res.Total.TotalBits-res.Total.ServerBits-res.Total.PeerBits()) > 1 {
		t.Errorf("tally not conserved: %v != %v + %v",
			res.Total.TotalBits, res.Total.ServerBits, res.Total.PeerBits())
	}
	// Trace bytes == simulated bits / 8.
	if math.Abs(res.Total.TotalBits/8-tr.TotalBytes()) > tr.TotalBytes()*1e-9 {
		t.Errorf("simulated traffic %v bytes != trace %v bytes",
			res.Total.TotalBits/8, tr.TotalBytes())
	}
	// Day grid sums to the total.
	var dayTotal Tally
	for _, d := range res.DayTotals() {
		dayTotal.Add(d)
	}
	if math.Abs(dayTotal.TotalBits-res.Total.TotalBits) > res.Total.TotalBits*1e-9 {
		t.Errorf("day grid total %v != run total %v", dayTotal.TotalBits, res.Total.TotalBits)
	}
	// ISP totals sum to the total.
	var ispTotal Tally
	for _, d := range res.ISPTotals() {
		ispTotal.Add(d)
	}
	if math.Abs(ispTotal.TotalBits-res.Total.TotalBits) > res.Total.TotalBits*1e-9 {
		t.Errorf("ISP total %v != run total %v", ispTotal.TotalBits, res.Total.TotalBits)
	}
	// Swarm tallies sum to the total.
	var swTotal Tally
	for _, sw := range res.Swarms {
		swTotal.Add(sw.Tally)
	}
	if math.Abs(swTotal.TotalBits-res.Total.TotalBits) > res.Total.TotalBits*1e-9 {
		t.Errorf("swarm total %v != run total %v", swTotal.TotalBits, res.Total.TotalBits)
	}
	// User ledgers: downloads equal total traffic; uploads equal peer
	// traffic.
	var userDown, userUp, userFromPeers float64
	for _, u := range res.Users {
		userDown += u.DownloadedBits
		userUp += u.UploadedBits
		userFromPeers += u.FromPeersBits
	}
	if math.Abs(userDown-res.Total.TotalBits) > res.Total.TotalBits*1e-6 {
		t.Errorf("user downloads %v != total %v", userDown, res.Total.TotalBits)
	}
	if math.Abs(userUp-res.Total.PeerBits()) > res.Total.PeerBits()*1e-6 {
		t.Errorf("user uploads %v != peer bits %v", userUp, res.Total.PeerBits())
	}
	if math.Abs(userFromPeers-res.Total.PeerBits()) > res.Total.PeerBits()*1e-6 {
		t.Errorf("user peer downloads %v != peer bits %v", userFromPeers, res.Total.PeerBits())
	}
}

func TestDayAttributionSplitsAcrossMidnight(t *testing.T) {
	// A two-hour session crossing midnight: bits must split between days.
	tr := makeTrace(2*86400,
		session(0, 0, 0, 7, 86400-3600, 7200, trace.BitrateSD),
	)
	res, err := Run(tr, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	days := res.DayTotals()
	if len(days) != 2 {
		t.Fatalf("got %d days, want 2", len(days))
	}
	if math.Abs(days[0].TotalBits-days[1].TotalBits) > eps {
		t.Errorf("midnight split uneven: %v vs %v", days[0].TotalBits, days[1].TotalBits)
	}
}

func TestRandomPolicyPlumbing(t *testing.T) {
	tr := makeTrace(3600,
		session(0, 0, 0, 7, 0, 600, trace.BitrateSD),
		session(1, 0, 0, 8, 0, 600, trace.BitrateSD),
	)
	cfg := DefaultConfig(1)
	cfg.Policy = matching.Random{}
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PolicyName != "random" {
		t.Errorf("policy name = %q", res.PolicyName)
	}
	if res.Total.PeerBits() == 0 {
		t.Error("random policy should still offload")
	}
}

func TestTrackUsersOff(t *testing.T) {
	tr := makeTrace(3600, session(0, 0, 0, 0, 0, 600, trace.BitrateSD))
	cfg := DefaultConfig(1)
	cfg.TrackUsers = false
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Users != nil {
		t.Error("user tracking should be disabled")
	}
}

func TestSwarmStatsCapacity(t *testing.T) {
	tr := makeTrace(7200,
		session(0, 0, 0, 7, 0, 3600, trace.BitrateSD),
		session(1, 0, 0, 7, 0, 3600, trace.BitrateSD),
	)
	res, err := Run(tr, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Swarms) != 1 {
		t.Fatalf("got %d swarms, want 1", len(res.Swarms))
	}
	if got := res.Swarms[0].Capacity; math.Abs(got-1.0) > 1e-9 {
		t.Errorf("capacity = %v, want 1.0 (7200 user-seconds / 7200 s)", got)
	}
	if res.Swarms[0].Sessions != 2 {
		t.Errorf("sessions = %d, want 2", res.Swarms[0].Sessions)
	}
}
