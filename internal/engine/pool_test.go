package engine

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"consumelocal/internal/sim"
	"consumelocal/internal/swarm"
	"consumelocal/internal/trace"
)

// arrive hands one session to its owning worker as the feed does,
// without quantization.
func arrive(w *worker, s trace.Session) {
	w.session(&item{sess: s, key: swarm.KeyOf(s, w.cfg.Swarm), origDur: s.DurationSec})
}

// pooledBytes sums what the worker's pool holds: each set and its
// buffers.
func pooledBytes(w *worker) int {
	n := 0
	for _, b := range w.pool {
		n += int(unsafe.Sizeof(*b)) + b.footprint()
	}
	return n
}

// TestSwarmPoolIdleHoldsNothing replays the cross-check trace through
// one worker with hourly marks: after every mark a swarm holds buffers
// exactly while it is live, and every pooled set is empty and within the
// pool's size bound.
func TestSwarmPoolIdleHoldsNothing(t *testing.T) {
	tr := testTrace(t)
	cfg := DefaultConfig(1.0)
	cfg.Sim.SeedRetentionSec = 600
	w := newWorker(0, cfg, TraceSource(tr).Meta())
	check := func(until int64) {
		t.Helper()
		for key, st := range w.states {
			if live := st.activePos >= 0; live != (st.bufs != nil) {
				t.Fatalf("mark %d: swarm %+v live %v holds buffers %v", until, key, live, st.bufs != nil)
			}
		}
		for _, b := range w.pool {
			if !b.tracker.Idle() || len(b.members)+len(b.free)+len(b.byExchange) != 0 {
				t.Fatalf("mark %d: a pooled set is not empty", until)
			}
			if b.footprint() > maxPooledBytes {
				t.Fatalf("mark %d: a pooled set holds %d bytes, over the %d-byte bound", until, b.footprint(), maxPooledBytes)
			}
		}
	}
	boundary := int64(3600)
	for _, s := range tr.Sessions {
		for s.StartSec >= boundary {
			w.mark(boundary, false)
			check(boundary)
			boundary += 3600
		}
		arrive(w, s)
	}
	w.mark(math.MaxInt64, true)
	check(math.MaxInt64)
	if len(w.activeList) != 0 || len(w.pool) == 0 {
		t.Fatalf("after the final mark: %d swarms live, %d sets pooled", len(w.activeList), len(w.pool))
	}
}

// TestSwarmPoolReactivationAllocs pins reactivation at zero allocations:
// a swarm that went idle comes back no larger than the set it handed to
// the pool, settles and goes idle again.
func TestSwarmPoolReactivationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops matching's pooled scratch on purpose, so reuse cannot be pinned")
	}
	meta := trace.Meta{HorizonSec: 30 * 86400, NumUsers: 10, NumContent: 10, NumISPs: 1}
	w := newWorker(0, DefaultConfig(1.0), meta)
	at := int64(0)
	cycle := func() {
		for i := range 4 {
			arrive(w, trace.Session{
				UserID: uint32(i), ContentID: 3, Exchange: uint16(i % 2),
				StartSec: at + int64(i)*20, DurationSec: 60, Bitrate: trace.BitrateSD,
			})
		}
		at += 1000
		w.mark(at, false)
	}
	cycle()
	if len(w.activeList) != 0 || len(w.pool) != 1 {
		t.Fatalf("after one cycle: %d swarms live, %d sets pooled, want 0 and 1", len(w.activeList), len(w.pool))
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("reactivating an idle swarm allocated %.1f times, want 0", allocs)
	}
}

// TestSwarmPoolBound cycles one 5,000-member swarm and 1,000 one-member
// swarms from idle to live and back 20 times, activated in a random
// order each time: the pool must not keep growing. Handed out last in,
// first out, the large swarm's buffers would go to a small swarm while
// the large one grew another set, cycle after cycle.
func TestSwarmPoolBound(t *testing.T) {
	meta := trace.Meta{HorizonSec: 30 * 86400, NumUsers: 5000, NumContent: 1001, NumISPs: 1}
	w := newWorker(0, DefaultConfig(1.0), meta)
	rng := rand.New(rand.NewSource(5))
	swarms := make([]int, 1001) // content IDs; content 0 is the large swarm
	for i := range swarms {
		swarms[i] = i
	}
	var first int
	for cycle := range 20 {
		at := int64(cycle) * 3600
		rng.Shuffle(len(swarms), func(i, j int) { swarms[i], swarms[j] = swarms[j], swarms[i] })
		for _, content := range swarms {
			members := 1
			if content == 0 {
				members = 5000
			}
			for m := range members {
				arrive(w, trace.Session{
					UserID: uint32(m), ContentID: uint32(content),
					StartSec: at, DurationSec: 600, Bitrate: trace.BitrateSD,
				})
			}
		}
		w.mark(at+3600, false)
		if len(w.activeList) != 0 {
			t.Fatalf("cycle %d: %d swarms still live", cycle, len(w.activeList))
		}
		if cycle == 0 {
			first = pooledBytes(w)
		}
	}
	if last := pooledBytes(w); last > 2*first {
		t.Fatalf("pooled bytes grew from %d after the first cycle to %d after the last", first, last)
	}
}

// TestMergeKeepsShardLedgers holds the merged user ledgers, which reuse
// the workers' maps, to a merge that copies every shard's ledgers into
// fresh ones in shard order: bit for bit, with and without seeding. The
// reference drives one worker per shard directly; with a window as long
// as the trace, the pipeline's workers see the same sessions in the same
// order and settle once, at the final mark.
func TestMergeKeepsShardLedgers(t *testing.T) {
	gen := trace.DefaultGeneratorConfig(0.001)
	gen.Days = 3
	tr, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	meta := TraceSource(tr).Meta()
	for _, retention := range []int64{0, 600} {
		for _, workers := range []int{1, 2, 5} {
			cfg := DefaultConfig(1.0)
			cfg.Sim.SeedRetentionSec = retention
			cfg.WindowSec = tr.HorizonSec
			cfg.Workers = workers
			cfg = cfg.withDefaults()

			shards := make([]*worker, workers)
			for i := range shards {
				shards[i] = newWorker(i, cfg, meta)
			}
			for _, s := range tr.Sessions {
				arrive(shards[shardOf(swarm.KeyOf(s, cfg.Sim.Swarm), workers)], s)
			}
			want := make(map[uint32]*sim.UserStats)
			for _, w := range shards {
				w.mark(math.MaxInt64, true)
				for id, u := range w.report().users {
					dst := want[id]
					if dst == nil {
						dst = &sim.UserStats{}
						want[id] = dst
					}
					dst.DownloadedBits += u.DownloadedBits
					dst.FromPeersBits += u.FromPeersBits
					dst.UploadedBits += u.UploadedBits
				}
			}

			run, err := Stream(context.Background(), TraceSource(tr), cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := run.Result()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Users) != len(want) || len(want) == 0 {
				t.Fatalf("retention %d, %d workers: %d users merged, want %d", retention, workers, len(res.Users), len(want))
			}
			for id, wu := range want {
				gu := res.Users[id]
				if gu == nil ||
					math.Float64bits(gu.DownloadedBits) != math.Float64bits(wu.DownloadedBits) ||
					math.Float64bits(gu.FromPeersBits) != math.Float64bits(wu.FromPeersBits) ||
					math.Float64bits(gu.UploadedBits) != math.Float64bits(wu.UploadedBits) {
					t.Fatalf("retention %d, %d workers: user %d ledger %+v, want %+v", retention, workers, id, gu, wu)
				}
			}
		}
	}
}
