package engine

import (
	"context"
	"io"
	"math"
	"strings"
	"testing"

	"consumelocal/internal/sim"
	"consumelocal/internal/trace"
)

// scriptedLiveSource replays a fixed event script — sessions and
// watermark marks — through the LiveSource interface.
type scriptedLiveSource struct {
	meta   trace.Meta
	events []Event
	pos    int
}

func (s *scriptedLiveSource) Meta() trace.Meta { return s.meta }

func (s *scriptedLiveSource) Next() (trace.Session, error) {
	for {
		ev, err := s.NextEvent(context.Background())
		if err != nil {
			return trace.Session{}, err
		}
		if !ev.Mark {
			return ev.Session, nil
		}
	}
}

func (s *scriptedLiveSource) NextEvent(ctx context.Context) (Event, error) {
	if err := ctx.Err(); err != nil {
		return Event{}, err
	}
	if s.pos >= len(s.events) {
		return Event{}, io.EOF
	}
	ev := s.events[s.pos]
	s.pos++
	return ev, nil
}

func liveTestMeta() trace.Meta {
	return trace.Meta{
		Name:       "scripted",
		HorizonSec: 4 * 3600,
		NumUsers:   10,
		NumContent: 2,
		NumISPs:    1,
	}
}

func liveTestSession(user uint32, start int64, dur int32) trace.Session {
	return trace.Session{
		UserID:      user,
		ContentID:   0,
		ISP:         0,
		Exchange:    uint16(user % 345),
		StartSec:    start,
		DurationSec: dur,
		Bitrate:     trace.BitrateSD,
	}
}

// TestLiveSourceWatermarkSettlesIdleWindows: watermark marks must close
// reporting windows while no sessions arrive — the broadcast clock
// advancing during a quiet stretch — and the final result must still
// match the batch simulator over the equivalent materialised trace.
func TestLiveSourceWatermarkSettlesIdleWindows(t *testing.T) {
	meta := liveTestMeta()
	sessions := []trace.Session{
		liveTestSession(1, 100, 600),
		liveTestSession(2, 100, 600),
		liveTestSession(3, 7300, 600),
	}
	src := &scriptedLiveSource{
		meta: meta,
		events: []Event{
			{Session: sessions[0]},
			{Session: sessions[1]},
			{Mark: true, WatermarkSec: 3600},
			{Mark: true, WatermarkSec: 7200},
			{Session: sessions[2]},
		},
	}
	cfg := DefaultConfig(1.0)
	cfg.WindowSec = 3600
	cfg.Workers = 2

	run, err := Stream(context.Background(), src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []Snapshot
	for snap := range run.Snapshots() {
		snaps = append(snaps, snap)
	}
	got, err := run.Result()
	if err != nil {
		t.Fatal(err)
	}

	// Windows 0 and 1 settle on the watermark marks (before the final
	// drain), window 1 with an empty delta — nobody was active.
	if len(snaps) < 3 {
		t.Fatalf("got %d snapshots, want the two watermark-settled windows plus the final one", len(snaps))
	}
	if snaps[0].ToSec != 3600 || snaps[0].Delta.TotalBits == 0 {
		t.Fatalf("window 0 = %+v, want settled traffic up to 3600", snaps[0])
	}
	if snaps[1].FromSec != 3600 || snaps[1].ToSec != 7200 || snaps[1].Delta.TotalBits != 0 {
		t.Fatalf("window 1 = %+v, want an empty idle window [3600,7200)", snaps[1])
	}
	if snaps[1].SessionsSeen != 2 {
		t.Fatalf("window 1 saw %d sessions, want 2", snaps[1].SessionsSeen)
	}
	if !snaps[len(snaps)-1].Final {
		t.Fatal("last snapshot should be final")
	}

	tr := &trace.Trace{
		Name:       meta.Name,
		HorizonSec: meta.HorizonSec,
		NumUsers:   meta.NumUsers,
		NumContent: meta.NumContent,
		NumISPs:    meta.NumISPs,
		Sessions:   sessions,
	}
	want, err := sim.Run(tr, cfg.Sim)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsMatch(t, got, want, 1e-12)
}

// TestLiveSourceWatermarkBeyondHorizon: a runaway watermark (up to
// MaxInt64) must clamp to the horizon instead of spinning out empty
// windows forever.
func TestLiveSourceWatermarkBeyondHorizon(t *testing.T) {
	meta := liveTestMeta()
	src := &scriptedLiveSource{
		meta: meta,
		events: []Event{
			{Session: liveTestSession(1, 100, 600)},
			{Mark: true, WatermarkSec: math.MaxInt64},
		},
	}
	cfg := DefaultConfig(1.0)
	cfg.WindowSec = 3600
	cfg.Workers = 1

	run, err := Stream(context.Background(), src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []Snapshot
	for snap := range run.Snapshots() {
		snaps = append(snaps, snap)
	}
	if _, err := run.Result(); err != nil {
		t.Fatal(err)
	}
	maxWindows := int(meta.HorizonSec/cfg.WindowSec) + 1
	if len(snaps) > maxWindows+1 {
		t.Fatalf("runaway watermark produced %d snapshots, want at most %d", len(snaps), maxWindows+1)
	}
	for _, snap := range snaps {
		if snap.FromSec > meta.HorizonSec {
			t.Fatalf("snapshot window [%d,%d) starts beyond the horizon", snap.FromSec, snap.ToSec)
		}
	}
}

// TestLiveSourceSessionBehindWatermarkRejected: a session starting
// before an already-delivered watermark breaks the promise the engine
// settled windows on, and must fail the replay like any out-of-order
// arrival.
func TestLiveSourceSessionBehindWatermarkRejected(t *testing.T) {
	src := &scriptedLiveSource{
		meta: liveTestMeta(),
		events: []Event{
			{Mark: true, WatermarkSec: 7200},
			{Session: liveTestSession(1, 3600, 600)},
		},
	}
	run, err := Stream(context.Background(), src, DefaultConfig(1.0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Result(); err == nil || !strings.Contains(err.Error(), "out of start order") {
		t.Fatalf("Result = %v, want out-of-start-order error", err)
	}
}
