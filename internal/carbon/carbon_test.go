package carbon

import (
	"math"
	"math/rand"
	"testing"

	"consumelocal/internal/energy"
	"consumelocal/internal/sim"
	"consumelocal/internal/trace"
)

func ledger() map[uint32]*sim.UserStats {
	return map[uint32]*sim.UserStats{
		// Heavy uploader: watches 1 GB, uploads 2 GB.
		1: {DownloadedBits: 8e9, FromPeersBits: 4e9, UploadedBits: 16e9},
		// Never uploads.
		2: {DownloadedBits: 8e9},
		// Balanced: uploads as much as it watches.
		3: {DownloadedBits: 8e9, FromPeersBits: 8e9, UploadedBits: 8e9},
	}
}

func TestBalancesSortedAndPriced(t *testing.T) {
	p := energy.Valancius()
	balances := Balances(ledger(), p)
	if len(balances) != 3 {
		t.Fatalf("got %d balances, want 3", len(balances))
	}
	for i := 1; i < len(balances); i++ {
		if balances[i].User <= balances[i-1].User {
			t.Error("balances not sorted by user")
		}
	}
	// User 2 never uploads: fully carbon negative.
	if balances[1].CCT != -1 {
		t.Errorf("non-uploader CCT = %v, want -1", balances[1].CCT)
	}
	// User 1 uploads twice its consumption: strongly positive under
	// Valancius (credit 253.32 vs cost 107 per uploaded bit).
	if balances[0].CCT <= 0 {
		t.Errorf("heavy uploader CCT = %v, want positive", balances[0].CCT)
	}
	// Hand-check user 3: consumption l·γm·16e9, credit PUE·γs·8e9.
	wantCCT := (1.2*211.1*8 - 107*16) / (107 * 16)
	if math.Abs(balances[2].CCT-wantCCT) > 1e-9 {
		t.Errorf("balanced user CCT = %v, want %v", balances[2].CCT, wantCCT)
	}
}

func TestCCTValues(t *testing.T) {
	values := CCTValues(Balances(ledger(), energy.Baliga()))
	if len(values) != 3 {
		t.Fatalf("got %d values", len(values))
	}
}

func TestDistribute(t *testing.T) {
	d := Distribute(ledger(), energy.Valancius())
	if d.Model != "valancius" {
		t.Errorf("model = %q", d.Model)
	}
	if d.Users != 3 {
		t.Errorf("users = %d, want 3", d.Users)
	}
	// Users 1 and 3 are positive (user 3: credit 2026 vs cost 1712 J per
	// the hand check above), user 2 is at -1.
	if math.Abs(d.CarbonPositive-2.0/3) > 1e-9 {
		t.Errorf("carbon positive = %v, want 2/3", d.CarbonPositive)
	}
	if d.CarbonNeutralOrBetter < d.CarbonPositive {
		t.Error("neutral-or-better must include positive")
	}
	if len(d.CDF) == 0 {
		t.Error("missing CDF")
	}
	if d.CDF[len(d.CDF)-1].Y != 1 {
		t.Error("CDF must end at 1")
	}
}

func TestDistributeEmpty(t *testing.T) {
	d := Distribute(nil, energy.Valancius())
	if d.Users != 0 || d.CarbonPositive != 0 || len(d.CDF) != 0 {
		t.Errorf("empty distribution = %+v", d)
	}
}

func TestTransfer(t *testing.T) {
	p := energy.Baliga()
	st := Transfer(ledger(), p)
	var wantCredit, wantFootprint float64
	for _, u := range ledger() {
		wantCredit += p.ServerCreditPerBit() * u.UploadedBits * 1e-9
		wantFootprint += p.UserPerBit() * (u.DownloadedBits + u.UploadedBits) * 1e-9
	}
	if math.Abs(st.CreditJoules-wantCredit) > 1e-9 {
		t.Errorf("credit = %v, want %v", st.CreditJoules, wantCredit)
	}
	if math.Abs(st.UserFootprintJoules-wantFootprint) > 1e-9 {
		t.Errorf("footprint = %v, want %v", st.UserFootprintJoules, wantFootprint)
	}
	wantNet := (wantCredit - wantFootprint) / wantFootprint
	if math.Abs(st.NetNormalized-wantNet) > 1e-9 {
		t.Errorf("net = %v, want %v", st.NetNormalized, wantNet)
	}
}

// Fig. 6 prints the collective CCT, so Transfer must give the same bits
// on every call: float addition is not associative, and summing in map
// iteration order does not.
func TestTransferDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	users := make(map[uint32]*sim.UserStats, 2000)
	for id := uint32(0); id < 2000; id++ {
		down := math.Exp(rng.Float64()*20) * 1e3
		users[id] = &sim.UserStats{
			DownloadedBits: down,
			FromPeersBits:  down * rng.Float64(),
			UploadedBits:   math.Exp(rng.Float64()*20) * 1e3,
		}
	}
	p := energy.Valancius()
	want := Transfer(users, p)
	for i := 0; i < 50; i++ {
		got := Transfer(users, p)
		if math.Float64bits(got.CreditJoules) != math.Float64bits(want.CreditJoules) ||
			math.Float64bits(got.UserFootprintJoules) != math.Float64bits(want.UserFootprintJoules) ||
			math.Float64bits(got.NetNormalized) != math.Float64bits(want.NetNormalized) {
			t.Fatalf("call %d: Transfer = %+v, first call %+v", i, got, want)
		}
	}
}

func TestTransferEmpty(t *testing.T) {
	st := Transfer(nil, energy.Valancius())
	if st.NetNormalized != -1 {
		t.Errorf("empty transfer net = %v, want -1", st.NetNormalized)
	}
}

// End-to-end: on a simulated trace, Baliga's more expensive servers must
// make more users carbon positive than Valancius (the paper's Fig. 6
// ordering: >70% vs ~41%).
func TestBaligaMakesMoreUsersCarbonPositive(t *testing.T) {
	cfg := trace.DefaultGeneratorConfig(0.002)
	cfg.Days = 7
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(tr, sim.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	dv := Distribute(res.Users, energy.Valancius())
	db := Distribute(res.Users, energy.Baliga())
	if db.CarbonPositive <= dv.CarbonPositive {
		t.Errorf("baliga positive share %.3f should exceed valancius %.3f",
			db.CarbonPositive, dv.CarbonPositive)
	}
	if db.CarbonPositive == 0 {
		t.Error("expected some carbon positive users")
	}
}
