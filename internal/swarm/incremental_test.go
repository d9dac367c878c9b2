package swarm

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"consumelocal/internal/trace"
)

// collector is the test Sink: it snapshots each emitted interval
// (copying the borrowed Active slice, which the tracker reuses) and
// records close order.
type collector struct {
	intervals []Interval
	closes    []int
}

func (c *collector) Emit(iv Interval) {
	active := make([]int, len(iv.Active))
	copy(active, iv.Active)
	iv.Active = active
	c.intervals = append(c.intervals, iv)
}

func (c *collector) Closed(index int) { c.closes = append(c.closes, index) }

// feedTracker replays a session list through a Tracker the way the
// streaming engine does — advance to each start, then schedule the
// session — and collects the emitted intervals and close order.
func feedTracker(sessions []trace.Session) (intervals []Interval, closes []int) {
	return feedInto(NewTracker(), sessions)
}

// feedInto is feedTracker on a given tracker.
func feedInto(tr *Tracker, sessions []trace.Session) (intervals []Interval, closes []int) {
	var c collector
	for i, s := range sessions {
		tr.Advance(s.StartSec, &c)
		tr.Schedule(s.StartSec, s.EndSec(), i)
	}
	tr.Finish(&c)
	return c.intervals, c.closes
}

func assertIntervalsEqual(t *testing.T, got, want []Interval) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("interval counts differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i].From != want[i].From || got[i].To != want[i].To {
			t.Fatalf("interval %d spans differ: [%d,%d) vs [%d,%d)",
				i, got[i].From, got[i].To, want[i].From, want[i].To)
		}
		if !reflect.DeepEqual(got[i].Active, want[i].Active) {
			t.Fatalf("interval %d active sets differ: %v vs %v", i, got[i].Active, want[i].Active)
		}
	}
}

func TestTrackerMatchesSweepRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		sessions := make([]trace.Session, n)
		for i := range sessions {
			sessions[i] = trace.Session{
				UserID:      uint32(i),
				StartSec:    int64(rng.Intn(200)),
				DurationSec: int32(1 + rng.Intn(100)),
				Bitrate:     trace.BitrateSD,
			}
		}
		sort.Slice(sessions, func(i, j int) bool { return sessions[i].StartSec < sessions[j].StartSec })

		sw := &Swarm{Sessions: sessions}
		want := new(Sweeper).Sweep(sw)
		got, closes := feedTracker(sessions)
		assertIntervalsEqual(t, got, want)
		if len(closes) != n {
			t.Fatalf("trial %d: %d closes, want %d", trial, len(closes), n)
		}
	}
}

func TestTrackerBackToBackSessionsNotConcurrent(t *testing.T) {
	// Second session starts exactly when the first ends: Sweep's
	// ends-before-starts tie-break keeps them in separate intervals.
	sessions := []trace.Session{
		{UserID: 0, StartSec: 0, DurationSec: 10, Bitrate: trace.BitrateSD},
		{UserID: 1, StartSec: 10, DurationSec: 10, Bitrate: trace.BitrateSD},
	}
	got, _ := feedTracker(sessions)
	want := new(Sweeper).Sweep(&Swarm{Sessions: sessions})
	assertIntervalsEqual(t, got, want)
	for _, iv := range got {
		if len(iv.Active) != 1 {
			t.Fatalf("back-to-back sessions appear concurrent: %+v", iv)
		}
	}
}

func TestTrackerFutureOpens(t *testing.T) {
	// Seeding-style members open in the future relative to the arrival
	// watermark (their open is scheduled at an earlier Advance point).
	// The tracker must interleave them with other sessions correctly.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(20)
		var combined []trace.Session
		for i := 0; i < n; i++ {
			s := trace.Session{
				UserID:      uint32(i),
				StartSec:    int64(rng.Intn(150)),
				DurationSec: int32(1 + rng.Intn(60)),
				Bitrate:     trace.BitrateSD,
			}
			combined = append(combined, s)
		}
		sort.Slice(combined, func(i, j int) bool { return combined[i].StartSec < combined[j].StartSec })

		// Batch reference: real sessions interleaved with their seeders,
		// exactly like sim's augment step.
		const retention = 25
		var members []trace.Session
		for _, s := range combined {
			members = append(members, s)
			seeder := s
			seeder.StartSec = s.EndSec()
			seeder.DurationSec = retention
			members = append(members, seeder)
		}
		want := new(Sweeper).Sweep(&Swarm{Sessions: members})

		// Streaming: schedule a seeder alongside each real session.
		tr := NewTracker()
		var c collector
		idx := 0
		for _, s := range combined {
			tr.Advance(s.StartSec, &c)
			tr.Schedule(s.StartSec, s.EndSec(), idx)
			idx++
			seeder := s
			seeder.StartSec = s.EndSec()
			seeder.DurationSec = retention
			tr.Schedule(seeder.StartSec, seeder.EndSec(), idx)
			idx++
		}
		tr.Finish(&c)
		assertIntervalsEqual(t, c.intervals, want)
	}
}

// TestTrackerIndexReuse is the free-list contract: once Closed has
// released a member's index, a later member may reuse it, and emitted
// Active sets still follow Schedule order — not index order — exactly
// as the batch sweep orders members by arrival.
func TestTrackerIndexReuse(t *testing.T) {
	sessions := []trace.Session{
		{UserID: 0, StartSec: 0, DurationSec: 10, Bitrate: trace.BitrateSD},  // index 0, closes first
		{UserID: 1, StartSec: 0, DurationSec: 100, Bitrate: trace.BitrateSD}, // index 1, long-lived
		{UserID: 2, StartSec: 20, DurationSec: 30, Bitrate: trace.BitrateSD}, // reuses index 0
	}
	want := new(Sweeper).Sweep(&Swarm{Sessions: sessions})

	tr := NewTracker()
	var c collector
	tr.Advance(0, &c)
	tr.Schedule(0, 10, 0)
	tr.Schedule(0, 100, 1)
	tr.Advance(20, &c)
	if len(c.closes) != 1 || c.closes[0] != 0 {
		t.Fatalf("closes after advance to 20 = %v, want [0]", c.closes)
	}
	tr.Schedule(20, 50, 0) // recycled index
	tr.Finish(&c)

	// The batch sweep has the third session at index 2; translate the
	// reused index back before comparing.
	for _, iv := range c.intervals {
		for i, idx := range iv.Active {
			if iv.From >= 20 && idx == 0 {
				iv.Active[i] = 2
			}
		}
	}
	assertIntervalsEqual(t, c.intervals, want)
}

func TestTrackerIdle(t *testing.T) {
	tr := NewTracker()
	if !tr.Idle() {
		t.Fatal("new tracker should be idle")
	}
	tr.Schedule(0, 10, 0)
	if tr.Idle() {
		t.Fatal("tracker with pending events should not be idle")
	}
	var c collector
	tr.Finish(&c)
	if !tr.Idle() {
		t.Fatal("finished tracker should be idle")
	}
	if len(c.intervals) != 1 {
		t.Fatalf("emitted %d intervals, want 1", len(c.intervals))
	}
	if tr.ActiveCount() != 0 {
		t.Fatalf("active count = %d, want 0", tr.ActiveCount())
	}
}

// TestTrackerResetMatchesFresh reuses one tracker across random
// memberships, resetting it between them, every other time with members
// of the last one still active or pending. Each membership must emit
// exactly the intervals and close order a fresh tracker emits, although
// it starts before the reused tracker's last watermark, and Reset must
// keep the buffers it empties.
func TestTrackerResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	reused := NewTracker()
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		sessions := make([]trace.Session, n)
		for i := range sessions {
			sessions[i] = trace.Session{
				UserID:      uint32(i),
				StartSec:    int64(rng.Intn(200)),
				DurationSec: int32(1 + rng.Intn(100)),
				Bitrate:     trace.BitrateSD,
			}
		}
		sort.Slice(sessions, func(i, j int) bool { return sessions[i].StartSec < sessions[j].StartSec })

		if trial%2 == 1 {
			var c collector
			reused.Advance(0, &c)
			reused.Schedule(0, 300, 7)
			reused.Schedule(50, 90, 8)
			reused.Advance(60, &c)
		}
		footprint := reused.Footprint()
		reused.Reset()
		if !reused.Idle() {
			t.Fatalf("trial %d: a reset tracker is not idle", trial)
		}
		if got := reused.Footprint(); got != footprint {
			t.Fatalf("trial %d: Reset changed the footprint from %d to %d bytes", trial, footprint, got)
		}

		want, wantCloses := feedTracker(sessions)
		got, gotCloses := feedInto(reused, sessions)
		assertIntervalsEqual(t, got, want)
		if !reflect.DeepEqual(gotCloses, wantCloses) {
			t.Fatalf("trial %d: close order %v, want %v", trial, gotCloses, wantCloses)
		}
	}
}
