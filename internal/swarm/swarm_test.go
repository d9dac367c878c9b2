package swarm

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"consumelocal/internal/trace"
)

func session(user, content uint32, isp uint8, start int64, dur int32, br trace.BitrateClass) trace.Session {
	return trace.Session{
		UserID:      user,
		ContentID:   content,
		ISP:         isp,
		StartSec:    start,
		DurationSec: dur,
		Bitrate:     br,
	}
}

func testTrace(sessions ...trace.Session) *trace.Trace {
	return &trace.Trace{
		Name:       "t",
		Epoch:      time.Unix(0, 0).UTC(),
		HorizonSec: 86400,
		NumUsers:   1000,
		NumContent: 100,
		NumISPs:    5,
		Sessions:   sessions,
	}
}

func TestKeyOf(t *testing.T) {
	s := session(1, 42, 3, 0, 60, trace.BitrateSD)

	tests := []struct {
		name string
		opts Options
		want Key
	}{
		{"full split", Options{RestrictISP: true, SplitBitrate: true}, Key{Content: 42, ISP: 3, Bitrate: 1500}},
		{"no isp", Options{RestrictISP: false, SplitBitrate: true}, Key{Content: 42, ISP: AnyISP, Bitrate: 1500}},
		{"no bitrate", Options{RestrictISP: true, SplitBitrate: false}, Key{Content: 42, ISP: 3, Bitrate: AnyBitrate}},
		{"content only", Options{}, Key{Content: 42, ISP: AnyISP, Bitrate: AnyBitrate}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := KeyOf(s, tt.opts); got != tt.want {
				t.Errorf("KeyOf = %+v, want %+v", got, tt.want)
			}
		})
	}
}

func TestDefaultOptionsMatchPaper(t *testing.T) {
	opts := DefaultOptions()
	if !opts.RestrictISP || !opts.SplitBitrate {
		t.Errorf("paper defaults are ISP-friendly bitrate-split swarms, got %+v", opts)
	}
}

func TestGroupPartitions(t *testing.T) {
	tr := testTrace(
		session(1, 7, 0, 0, 60, trace.BitrateSD),
		session(2, 7, 0, 10, 60, trace.BitrateSD),
		session(3, 7, 1, 20, 60, trace.BitrateSD), // other ISP
		session(4, 7, 0, 30, 60, trace.BitrateHD), // other bitrate
		session(5, 9, 0, 40, 60, trace.BitrateSD), // other content
	)

	swarms := Group(tr, DefaultOptions())
	if len(swarms) != 4 {
		t.Fatalf("got %d swarms, want 4", len(swarms))
	}
	var total int
	for _, sw := range swarms {
		total += len(sw.Sessions)
		for _, s := range sw.Sessions {
			if KeyOf(s, DefaultOptions()) != sw.Key {
				t.Errorf("session %+v grouped under wrong key %+v", s, sw.Key)
			}
		}
	}
	if total != len(tr.Sessions) {
		t.Errorf("grouped %d sessions, want %d", total, len(tr.Sessions))
	}
}

func TestGroupWithoutRestrictionsMergesISPs(t *testing.T) {
	tr := testTrace(
		session(1, 7, 0, 0, 60, trace.BitrateSD),
		session(3, 7, 1, 20, 60, trace.BitrateSD),
	)
	swarms := Group(tr, Options{RestrictISP: false, SplitBitrate: true})
	if len(swarms) != 1 {
		t.Fatalf("got %d swarms, want 1 city-wide swarm", len(swarms))
	}
	if len(swarms[0].Sessions) != 2 {
		t.Errorf("swarm holds %d sessions, want 2", len(swarms[0].Sessions))
	}
}

func TestGroupDeterministicOrder(t *testing.T) {
	tr := testTrace(
		session(1, 9, 1, 0, 60, trace.BitrateSD),
		session(2, 7, 0, 0, 60, trace.BitrateHD),
		session(3, 7, 0, 0, 60, trace.BitrateSD),
		session(4, 7, 1, 0, 60, trace.BitrateSD),
	)
	first := Group(tr, DefaultOptions())
	for run := 0; run < 5; run++ {
		again := Group(tr, DefaultOptions())
		for i := range first {
			if first[i].Key != again[i].Key {
				t.Fatalf("group order changed between runs at %d", i)
			}
		}
	}
	// Sorted by content, then ISP, then bitrate.
	for i := 1; i < len(first); i++ {
		if !first[i-1].Key.Less(first[i].Key) {
			t.Errorf("keys out of order: %+v before %+v", first[i-1].Key, first[i].Key)
		}
	}
}

func TestCapacity(t *testing.T) {
	sw := &Swarm{Sessions: []trace.Session{
		session(1, 0, 0, 0, 3600, trace.BitrateSD),
		session(2, 0, 0, 0, 1800, trace.BitrateSD),
	}}
	// 5400 user-seconds over a 10800 s horizon = capacity 0.5.
	if got := sw.Capacity(10800); got != 0.5 {
		t.Errorf("Capacity = %v, want 0.5", got)
	}
	if got := sw.Capacity(0); got != 0 {
		t.Errorf("Capacity(0) = %v, want 0", got)
	}
}

func TestBytes(t *testing.T) {
	sw := &Swarm{Sessions: []trace.Session{
		session(1, 0, 0, 0, 100, trace.BitrateSD),
		session(2, 0, 0, 0, 100, trace.BitrateSD),
	}}
	want := 2 * (1.5e6 * 100 / 8)
	if got := sw.Bytes(); got != want {
		t.Errorf("Bytes = %v, want %v", got, want)
	}
}

func TestSweepSimpleOverlap(t *testing.T) {
	sw := &Swarm{Sessions: []trace.Session{
		session(1, 0, 0, 0, 100, trace.BitrateSD),  // [0, 100)
		session(2, 0, 0, 50, 100, trace.BitrateSD), // [50, 150)
	}}
	intervals := new(Sweeper).Sweep(sw)
	want := []struct {
		from, to int64
		active   []int
	}{
		{0, 50, []int{0}},
		{50, 100, []int{0, 1}},
		{100, 150, []int{1}},
	}
	if len(intervals) != len(want) {
		t.Fatalf("got %d intervals, want %d: %+v", len(intervals), len(want), intervals)
	}
	for i, w := range want {
		iv := intervals[i]
		if iv.From != w.from || iv.To != w.to {
			t.Errorf("interval %d = [%d,%d), want [%d,%d)", i, iv.From, iv.To, w.from, w.to)
		}
		if len(iv.Active) != len(w.active) {
			t.Fatalf("interval %d active = %v, want %v", i, iv.Active, w.active)
		}
		for j := range w.active {
			if iv.Active[j] != w.active[j] {
				t.Errorf("interval %d active = %v, want %v", i, iv.Active, w.active)
			}
		}
	}
}

func TestSweepSkipsEmptyGaps(t *testing.T) {
	sw := &Swarm{Sessions: []trace.Session{
		session(1, 0, 0, 0, 10, trace.BitrateSD),
		session(2, 0, 0, 100, 10, trace.BitrateSD),
	}}
	intervals := new(Sweeper).Sweep(sw)
	if len(intervals) != 2 {
		t.Fatalf("got %d intervals, want 2 (gap omitted)", len(intervals))
	}
	if intervals[0].To != 10 || intervals[1].From != 100 {
		t.Errorf("gap not skipped: %+v", intervals)
	}
}

func TestSweepBackToBackSessionsNotConcurrent(t *testing.T) {
	// One session ends exactly when the next starts: never concurrent.
	sw := &Swarm{Sessions: []trace.Session{
		session(1, 0, 0, 0, 100, trace.BitrateSD),
		session(2, 0, 0, 100, 100, trace.BitrateSD),
	}}
	for _, iv := range new(Sweeper).Sweep(sw) {
		if len(iv.Active) > 1 {
			t.Errorf("back-to-back sessions appear concurrent in %+v", iv)
		}
	}
}

func TestSweepIdenticalIntervals(t *testing.T) {
	sw := &Swarm{Sessions: []trace.Session{
		session(1, 0, 0, 10, 50, trace.BitrateSD),
		session(2, 0, 0, 10, 50, trace.BitrateSD),
		session(3, 0, 0, 10, 50, trace.BitrateSD),
	}}
	intervals := new(Sweeper).Sweep(sw)
	if len(intervals) != 1 {
		t.Fatalf("got %d intervals, want 1", len(intervals))
	}
	if len(intervals[0].Active) != 3 {
		t.Errorf("active = %v, want all three", intervals[0].Active)
	}
}

func TestSweepEmptySwarm(t *testing.T) {
	sw := &Swarm{}
	if got := new(Sweeper).Sweep(sw); len(got) != 0 {
		t.Errorf("empty swarm swept to %d intervals", len(got))
	}
}

// Property: for random swarms, the sweep (a) tiles time without overlaps,
// (b) conserves user-seconds, and (c) reports active sets consistent with
// the session intervals.
func TestSweepProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		sessions := make([]trace.Session, n)
		var userSeconds int64
		for i := range sessions {
			start := int64(rng.Intn(1000))
			dur := int32(1 + rng.Intn(300))
			sessions[i] = session(uint32(i), 0, 0, start, dur, trace.BitrateSD)
			userSeconds += int64(dur)
		}
		sw := &Swarm{Sessions: sessions}
		intervals := new(Sweeper).Sweep(sw)

		var prevTo int64 = -1 << 62
		var sweptSeconds int64
		for _, iv := range intervals {
			if iv.From >= iv.To {
				return false // degenerate interval
			}
			if iv.From < prevTo {
				return false // overlap
			}
			prevTo = iv.To
			sweptSeconds += (iv.To - iv.From) * int64(len(iv.Active))
			for _, idx := range iv.Active {
				s := sessions[idx]
				if s.StartSec > iv.From || s.EndSec() < iv.To {
					return false // session not actually active here
				}
			}
		}
		return sweptSeconds == userSeconds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPeakConcurrency(t *testing.T) {
	sw := &Swarm{Sessions: []trace.Session{
		session(1, 0, 0, 0, 100, trace.BitrateSD),
		session(2, 0, 0, 50, 100, trace.BitrateSD),
		session(3, 0, 0, 60, 10, trace.BitrateSD),
	}}
	if got := sw.PeakConcurrency(); got != 3 {
		t.Errorf("PeakConcurrency = %d, want 3", got)
	}
	if got := (&Swarm{}).PeakConcurrency(); got != 0 {
		t.Errorf("empty PeakConcurrency = %d, want 0", got)
	}
}

func TestActiveSeconds(t *testing.T) {
	sw := &Swarm{Sessions: []trace.Session{
		session(1, 0, 0, 0, 100, trace.BitrateSD),
		session(2, 0, 0, 50, 100, trace.BitrateSD),
	}}
	busy, sharing := sw.ActiveSeconds()
	if busy != 150 {
		t.Errorf("busy = %v, want 150", busy)
	}
	if sharing != 50 {
		t.Errorf("sharing = %v, want 50", sharing)
	}
}

func TestGroupOnGeneratedTrace(t *testing.T) {
	cfg := trace.DefaultGeneratorConfig(0.001)
	cfg.Days = 5
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	swarms := Group(tr, DefaultOptions())
	if len(swarms) == 0 {
		t.Fatal("no swarms from generated trace")
	}
	var total int
	var totalBytes float64
	for _, sw := range swarms {
		total += len(sw.Sessions)
		totalBytes += sw.Bytes()
	}
	if total != len(tr.Sessions) {
		t.Errorf("swarms hold %d sessions, trace has %d", total, len(tr.Sessions))
	}
	if diff := totalBytes - tr.TotalBytes(); diff > 1 || diff < -1 {
		t.Errorf("swarm bytes %v != trace bytes %v", totalBytes, tr.TotalBytes())
	}
}
