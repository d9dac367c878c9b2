package sim

import (
	"math"
	"math/rand"
	"testing"

	"consumelocal/internal/matching"
	"consumelocal/internal/swarm"
)

// bookingInterval builds one matched interval of n members starting at
// from and lasting dur seconds, with accounts resolved through b the way
// the engines resolve them, ready for BookInterval.
func bookingInterval(tb testing.TB, b *Booker, n int, from, dur int64) (swarm.Interval, *matching.Allocation, []float64, []Account) {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	iv := swarm.Interval{From: from, To: from + dur, Active: make([]int, n)}
	peers := make([]matching.Peer, n)
	demands := make([]float64, n)
	caps := make([]float64, n)
	accounts := make([]Account, n)
	var sumCaps float64
	for i := range peers {
		iv.Active[i] = i
		exchange := rng.Intn(345)
		peers[i] = matching.Peer{User: uint32(i), Exchange: exchange, PoP: exchange % 9}
		demands[i] = 3e6 * float64(dur)
		caps[i] = rng.Float64() * 3e6 * float64(dur)
		sumCaps += caps[i]
		accounts[i] = Account{ISP: i % len(b.Days[0]), Ledger: b.Ledger(uint32(i))}
	}
	var alloc matching.Allocation
	budget := DefaultConfig(1).PeerBudget(sumCaps, n)
	if err := (matching.LocalityFirst{}).MatchInto(&alloc, peers, demands, caps, budget); err != nil {
		tb.Fatal(err)
	}
	return iv, &alloc, demands, accounts
}

// TestBookIntervalLongTailClampedToGrid books the longest tail a trace
// can carry: a session starting an hour into the grid's last day with
// the largest duration the CSV accepts, whose interval runs ~24,855 days
// past the horizon. The last grid day must receive exactly its overlap
// share, and nothing else lands on the grid.
func TestBookIntervalLongTailClampedToGrid(t *testing.T) {
	const days, isps = 30, 2
	b := Booker{Days: newDayGrid(days, isps), Users: make(map[uint32]*UserStats)}
	from := int64(days-1)*86400 + 3600
	iv, alloc, demands, accounts := bookingInterval(t, &b, 1, from, math.MaxInt32)

	ivTally := b.BookInterval(iv, alloc, demands, accounts)
	if ivTally.TotalBits != demands[0] || ivTally.ServerBits != demands[0] {
		t.Fatalf("interval tally = %+v, want all %v bits from the server", ivTally, demands[0])
	}
	frac := float64(86400-3600) / float64(math.MaxInt32)
	want := Tally{TotalBits: demands[0] * frac, ServerBits: demands[0] * frac}
	for d := range b.Days {
		for isp, got := range b.Days[d] {
			expect := Tally{}
			if d == days-1 && isp == accounts[0].ISP {
				expect = want
			}
			if got != expect {
				t.Errorf("Days[%d][%d] = %+v, want %+v", d, isp, got, expect)
			}
		}
	}
	if got := b.Users[0].DownloadedBits; got != demands[0] {
		t.Errorf("ledger downloaded %v bits, want the whole demand %v", got, demands[0])
	}
}

// BenchmarkBookInterval measures booking one matched interval into the
// day grid and the user ledgers: the gated workloads' catch-up (3
// members) and live (100 members) shapes, and a tail interval running
// ~68 years past a 30-day grid, which costs the same as an in-grid one
// once the day loop is clamped.
func BenchmarkBookInterval(b *testing.B) {
	shapes := []struct {
		name string
		n    int
		from int64
		dur  int64
	}{
		{"catch-up", 3, 12*86400 + 3600, 1800},
		{"live", 100, 12*86400 + 72000, 600},
		{"long-tail", 1, 29*86400 + 3600, math.MaxInt32},
	}
	for _, shape := range shapes {
		b.Run(shape.name, func(b *testing.B) {
			bk := Booker{Days: newDayGrid(30, 5), Users: make(map[uint32]*UserStats)}
			iv, alloc, demands, accounts := bookingInterval(b, &bk, shape.n, shape.from, shape.dur)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bk.BookInterval(iv, alloc, demands, accounts)
			}
			b.ReportMetric(float64(shape.n), "members/op")
		})
	}
}
