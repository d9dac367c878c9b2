package engine

import (
	"math/rand"
	"slices"
	"testing"

	"consumelocal/internal/matching"
	"consumelocal/internal/trace"
)

// TestSwarmOrderUpkeep drives one swarm's kept exchange order through
// random admissions (sessions, some with a seeding appendix) and
// releases in any order, with slots recycled. After every step the
// order must be a fresh sort of the live members by (exchange, schedule
// order), and activeOrder over a random active subset must be a fresh
// sort of its slots by (exchange, slot).
func TestSwarmOrderUpkeep(t *testing.T) {
	w := newWorker(0, DefaultConfig(1.0), trace.Meta{HorizonSec: 86400, NumISPs: 1})
	if !w.keepsOrder {
		t.Fatal("a LocalityFirst worker keeps no order")
	}
	st := &swarmState{w: w, activePos: -1, bufs: &swarmBufs{}}
	rng := rand.New(rand.NewSource(1))

	type liveMember struct{ slot, exchange int }
	var live []liveMember // in schedule order
	admit := func(exchange int) {
		m := member{
			s:    trace.Session{StartSec: int64(len(live)), DurationSec: 60},
			peer: matching.Peer{Exchange: exchange, PoP: rng.Intn(4)},
		}
		slot := st.alloc(m)
		st.schedule(slot)
		live = append(live, liveMember{slot, exchange})
	}

	for step := 0; step < 20000; step++ {
		if len(live) == 0 || rng.Intn(64) >= len(live) {
			exchange := rng.Intn(8)
			admit(exchange)
			if rng.Intn(3) == 0 {
				admit(exchange) // the session's seeding appendix
			}
		} else {
			i := rng.Intn(len(live))
			st.Closed(live[i].slot)
			live = slices.Delete(live, i, i+1)
		}

		want := slices.Clone(live)
		slices.SortStableFunc(want, func(a, b liveMember) int { return a.exchange - b.exchange })
		if len(st.bufs.byExchange) != len(want) {
			t.Fatalf("step %d: %d members kept, want %d", step, len(st.bufs.byExchange), len(want))
		}
		for i, m := range want {
			if int(st.bufs.byExchange[i]) != m.slot {
				t.Fatalf("step %d: kept order %v, want slots %v", step, st.bufs.byExchange, want)
			}
		}

		var active []int // a random subset of the live members, in schedule order
		for _, m := range live {
			if rng.Intn(2) == 0 {
				active = append(active, m.slot)
			}
		}
		w.resize(len(active))
		wantSlots := make([]int32, len(active))
		for i := range wantSlots {
			wantSlots[i] = int32(i)
		}
		exchangeOf := func(slot int32) int { return st.bufs.members[active[slot]].peer.Exchange }
		slices.SortStableFunc(wantSlots, func(a, b int32) int { return exchangeOf(a) - exchangeOf(b) })
		if got := w.activeOrder(st, active); !slices.Equal(got, wantSlots) {
			t.Fatalf("step %d: activeOrder = %v, want %v", step, got, wantSlots)
		}
	}
}
