package experiments

import (
	"math"
	"slices"
	"testing"

	"consumelocal/internal/stats"
)

func TestFig2ShapeAndBands(t *testing.T) {
	res, err := shared.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Theory) != 2 || len(res.Simulation) != 2 {
		t.Fatalf("expected datasets for both models: theory %d, sim %d",
			len(res.Theory), len(res.Simulation))
	}
	if len(res.Tiers.Rows) != 3 {
		t.Fatalf("expected 3 popularity tiers, got %d", len(res.Tiers.Rows))
	}

	// Theory: one curve per ratio, each monotone in capacity.
	for _, ds := range res.Theory {
		if len(ds.Series) != len(Fig2Ratios) {
			t.Fatalf("%s: %d theory series, want %d", ds.Title, len(ds.Series), len(Fig2Ratios))
		}
		for _, s := range ds.Series {
			for i := 1; i < len(s.Points); i++ {
				if s.Points[i].Y < s.Points[i-1].Y-1e-9 {
					t.Errorf("%s %s: savings not monotone in capacity", ds.Title, s.Name)
					break
				}
			}
		}
		// Higher q/β dominates at fixed capacity.
		lastLow := ds.Series[0].Points[len(ds.Series[0].Points)-1].Y
		lastHigh := ds.Series[len(ds.Series)-1].Points[len(ds.Series[0].Points)-1].Y
		if lastHigh <= lastLow {
			t.Errorf("%s: q/β=1.0 savings (%v) should exceed q/β=0.2 (%v)", ds.Title, lastHigh, lastLow)
		}
	}

	// Simulation points exist for every tier and stay within sane bounds.
	for _, ds := range res.Simulation {
		if len(ds.Series) == 0 {
			t.Fatalf("%s: no simulation series", ds.Title)
		}
		var nPopular int
		for _, s := range ds.Series {
			for _, p := range s.Points {
				if p.Y < -1 || p.Y > 1 {
					t.Errorf("%s %s: savings %v out of range", ds.Title, s.Name, p.Y)
				}
			}
			if len(s.Points) > 0 && hasPrefix(s.Name, "sim popular") {
				nPopular += len(s.Points)
			}
		}
		if nPopular == 0 {
			t.Errorf("%s: no popular-tier simulation points", ds.Title)
		}
	}
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}

// The central claim of Fig. 2: for the popular item at q/β = 1, theory and
// simulation agree, and the savings land in the paper's reported bands
// (higher for Valancius than Baliga).
func TestFig2TheorySimulationAgreement(t *testing.T) {
	cfg := testConfig()
	cfg.Scale = 0.005 // larger swarms for tighter statistics
	res, err := NewSuite(cfg).Fig2()
	if err != nil {
		t.Fatal(err)
	}
	for m := range res.Simulation {
		theory := res.Theory[m]
		// Top-ratio series (q/β = 1.0) is the last one.
		theoryCurve := theory.Series[len(theory.Series)-1]

		for _, s := range res.Simulation[m].Series {
			if !hasPrefix(s.Name, "sim popular") {
				continue
			}
			for _, p := range s.Points {
				// Only compare the q/β=1.0 points: they are the last
				// fifth of the series points, but easier is to compare
				// against interpolated theory at the same capacity and
				// accept the envelope of all ratios.
				theo := interpolate(theoryCurve.Points, p.X)
				if p.Y > theo+0.08 {
					t.Errorf("%s %s: sim %v far above q/β=1 theory %v at c=%v",
						res.Simulation[m].Title, s.Name, p.Y, theo, p.X)
				}
			}
		}
	}
}

// interpolate evaluates a piecewise-linear curve at x (clamped to ends).
func interpolate(points []stats.Point, x float64) float64 {
	if len(points) == 0 {
		return 0
	}
	if x <= points[0].X {
		return points[0].Y
	}
	for i := 1; i < len(points); i++ {
		if x <= points[i].X {
			frac := (x - points[i-1].X) / (points[i].X - points[i-1].X)
			return points[i-1].Y + frac*(points[i].Y-points[i-1].Y)
		}
	}
	return points[len(points)-1].Y
}

func TestFig3Distributions(t *testing.T) {
	res, err := shared.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Capacities.Series) != 1 || len(res.Capacities.Series[0].Points) == 0 {
		t.Fatal("missing capacity CCDF")
	}
	if len(res.Savings.Series) != 2 {
		t.Fatalf("savings CCDF series = %d, want 2", len(res.Savings.Series))
	}
	// CCDF starts at 1 and decreases.
	ccdf := res.Capacities.Series[0].Points
	if math.Abs(ccdf[0].Y-1) > 1e-9 {
		t.Errorf("CCDF starts at %v, want 1", ccdf[0].Y)
	}
	// Heavy tail: the maximum capacity should dominate the median by a
	// large factor (the paper's catalogue spans ~5 orders of magnitude).
	minCap, maxCap := ccdf[0].X, ccdf[len(ccdf)-1].X
	if maxCap < 100*minCap {
		t.Errorf("capacity range [%v, %v] not heavy-tailed", minCap, maxCap)
	}
	if len(res.Summary.Rows) != 3 {
		t.Errorf("summary rows = %d, want 3", len(res.Summary.Rows))
	}
}

func TestFig4DailySavings(t *testing.T) {
	res, err := shared.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Datasets) != 2 {
		t.Fatalf("datasets = %d, want 2", len(res.Datasets))
	}
	for _, ds := range res.Datasets {
		if len(ds.Series) != 2*len(Fig4ISPs) {
			t.Fatalf("%s: series = %d, want %d", ds.Title, len(ds.Series), 2*len(Fig4ISPs))
		}
		// Sim and theory must broadly agree day by day (the paper's
		// "simulation results match the theory").
		for i := 0; i < len(ds.Series); i += 2 {
			simS, theoS := ds.Series[i], ds.Series[i+1]
			if len(simS.Points) == 0 {
				t.Fatalf("%s: empty sim series %s", ds.Title, simS.Name)
			}
			var maxGap float64
			for j := range simS.Points {
				gap := math.Abs(simS.Points[j].Y - theoS.Points[j].Y)
				if gap > maxGap {
					maxGap = gap
				}
			}
			if maxGap > 0.12 {
				t.Errorf("%s: sim vs theory gap %.3f too large for %s", ds.Title, maxGap, simS.Name)
			}
		}
	}
	// Valancius savings exceed Baliga (dataset order follows config).
	simMean := func(ds Dataset) float64 {
		var vals []float64
		for i := 0; i < len(ds.Series); i += 2 {
			for _, p := range ds.Series[i].Points {
				vals = append(vals, p.Y)
			}
		}
		return stats.Mean(vals)
	}
	if simMean(res.Datasets[0]) <= simMean(res.Datasets[1]) {
		t.Errorf("valancius mean savings (%v) should exceed baliga (%v)",
			simMean(res.Datasets[0]), simMean(res.Datasets[1]))
	}
}

func TestFig5Decomposition(t *testing.T) {
	res, err := NewSuite(Config{}).Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Datasets) != 2 {
		t.Fatalf("datasets = %d, want 2", len(res.Datasets))
	}
	for _, ds := range res.Datasets {
		if len(ds.Series) != 4 {
			t.Fatalf("%s: series = %d, want 4", ds.Title, len(ds.Series))
		}
		endToEnd, cdn, user, cct := ds.Series[0], ds.Series[1], ds.Series[2], ds.Series[3]
		n := len(endToEnd.Points)
		// CDN and User are mirror images.
		for i := 0; i < n; i++ {
			if math.Abs(cdn.Points[i].Y+user.Points[i].Y) > 1e-12 {
				t.Errorf("%s: CDN and User curves not mirrored at %v", ds.Title, cdn.Points[i].X)
				break
			}
		}
		// CCT starts at −1 (tiny swarms) and ends positive.
		if math.Abs(cct.Points[0].Y - -1) > 0.01 {
			t.Errorf("%s: CCT at c→0 = %v, want ≈ −1", ds.Title, cct.Points[0].Y)
		}
		if cct.Points[n-1].Y <= 0 {
			t.Errorf("%s: asymptotic CCT = %v, want positive", ds.Title, cct.Points[n-1].Y)
		}
		// End-to-end savings stay within (0, 1) and grow.
		if endToEnd.Points[n-1].Y <= endToEnd.Points[0].Y {
			t.Errorf("%s: end-to-end savings do not grow", ds.Title)
		}
	}
	if len(res.Summary.Rows) != 3 {
		t.Errorf("summary rows = %d", len(res.Summary.Rows))
	}
	// Paper: asymptotic CCT ≈ +18% (Valancius) and +58% (Baliga).
	asymptote := res.Summary.Rows[1]
	if asymptote[1] != "18.4%" {
		t.Errorf("valancius asymptote = %q, want 18.4%%", asymptote[1])
	}
	if asymptote[2] != "57.7%" {
		t.Errorf("baliga asymptote = %q, want 57.7%%", asymptote[2])
	}
}

func TestFig6CCTDistribution(t *testing.T) {
	res, err := shared.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CDF.Series) != 2 {
		t.Fatalf("CDF series = %d, want 2", len(res.CDF.Series))
	}
	for _, s := range res.CDF.Series {
		if len(s.Points) == 0 {
			t.Fatalf("empty CDF for %s", s.Name)
		}
		last := s.Points[len(s.Points)-1]
		if math.Abs(last.Y-1) > 1e-9 {
			t.Errorf("%s: CDF ends at %v", s.Name, last.Y)
		}
		// CCT values live in [−1, asymptote ≈ 0.6).
		for _, p := range s.Points {
			if p.X < -1-1e-9 || p.X > 1 {
				t.Errorf("%s: CCT value %v out of range", s.Name, p.X)
			}
		}
	}
	// Baliga must turn more users carbon positive than Valancius.
	positives := res.Summary.Rows[0]
	if positives[0] != "carbon positive users" {
		t.Fatalf("unexpected summary layout: %v", positives)
	}
	v := parsePercent(t, positives[1])
	b := parsePercent(t, positives[2])
	if b <= v {
		t.Errorf("baliga positive share %v should exceed valancius %v", b, v)
	}
	if b == 0 {
		t.Error("no carbon positive users at all")
	}
}

func parsePercent(t *testing.T, s string) float64 {
	t.Helper()
	var x float64
	if _, err := fmtSscanf(s, &x); err != nil {
		t.Fatalf("not a percentage: %q", s)
	}
	return x
}

// fmtSscanf parses "12.3%" without importing fmt in multiple spots.
func fmtSscanf(s string, out *float64) (int, error) {
	var x float64
	var frac, div float64 = 0, 1
	seenDot := false
	for _, r := range s {
		switch {
		case r >= '0' && r <= '9':
			if seenDot {
				div *= 10
				frac = frac*10 + float64(r-'0')
			} else {
				x = x*10 + float64(r-'0')
			}
		case r == '.':
			seenDot = true
		case r == '%':
			*out = x + frac/div
			return 1, nil
		}
	}
	*out = x + frac/div
	return 1, nil
}

func TestAblationMatching(t *testing.T) {
	table, err := shared.AblationMatching()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(table.Rows))
	}
	// Identical offload (matching does not change volume)...
	if table.Rows[0][1] != table.Rows[1][1] {
		t.Errorf("offload should not depend on matching policy: %v vs %v",
			table.Rows[0][1], table.Rows[1][1])
	}
	// ...but locality-first must save at least as much energy.
	for col := 2; col < 4; col++ {
		local := parsePercent(t, table.Rows[0][col])
		random := parsePercent(t, table.Rows[1][col])
		if local < random {
			t.Errorf("column %d: locality %v%% < random %v%%", col, local, random)
		}
	}
}

func TestAblationSwarmScope(t *testing.T) {
	table, err := shared.AblationSwarmScope()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(table.Rows))
	}
	// The paper configuration (row 0) is the lower bound on offload;
	// city-wide mixed-bitrate swarms (row 3) the upper bound.
	lower := parsePercent(t, table.Rows[0][1])
	upper := parsePercent(t, table.Rows[3][1])
	if upper < lower {
		t.Errorf("city-wide offload %v%% below restricted %v%%", upper, lower)
	}
}

func TestAblationBudget(t *testing.T) {
	table, err := shared.AblationBudget()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(table.Rows))
	}
	capped := parsePercent(t, table.Rows[0][1])
	uncapped := parsePercent(t, table.Rows[1][1])
	if uncapped < capped {
		t.Errorf("uncapped offload %v%% below capped %v%%", uncapped, capped)
	}
}

func TestAblationPlacement(t *testing.T) {
	table, err := shared.AblationPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(table.Rows))
	}
	// Under skewed placement the simulation must save at least as much as
	// the uniform-placement closed form: peers co-locate more often than
	// the theory assumes, never less.
	for _, row := range table.Rows[1:] {
		simS := parsePercent(t, row[2])
		theoS := parsePercent(t, row[3])
		if simS < theoS-1.5 {
			t.Errorf("%s: sim %v%% below theory %v%%", row[0], simS, theoS)
		}
	}
}

func TestPlacementGapGrowsWithSkew(t *testing.T) {
	flat, err := shared.PlacementGap(0)
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := shared.PlacementGap(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if skewed <= flat {
		t.Errorf("sim-theory gap should grow with skew: %v vs %v", skewed, flat)
	}
}

func TestAblationParticipation(t *testing.T) {
	table, err := shared.AblationParticipation()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != len(ParticipationRates) {
		t.Fatalf("rows = %d, want %d", len(table.Rows), len(ParticipationRates))
	}
	// Offload must fall monotonically as participation drops.
	prev := 101.0
	for i, row := range table.Rows {
		got := parsePercent(t, row[1])
		if got > prev+1e-9 {
			t.Errorf("row %d: offload %v%% above previous %v%%", i, got, prev)
		}
		prev = got
	}
}

func TestLiveBeatsCatchUp(t *testing.T) {
	table, err := shared.Live()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(table.Rows))
	}
	liveOffload := parsePercent(t, table.Rows[0][2])
	cuOffload := parsePercent(t, table.Rows[1][2])
	if liveOffload <= cuOffload {
		t.Errorf("live offload %v%% should exceed catch-up %v%%", liveOffload, cuOffload)
	}
	// Live synchronisation approaches the asymptotic bound: savings in
	// the paper's popular-item band for Valancius.
	liveSavings := parsePercent(t, table.Rows[0][3])
	if liveSavings < 35 {
		t.Errorf("live savings %v%% should reach the paper's 35-48%% band", liveSavings)
	}
}

func TestAccounting(t *testing.T) {
	table, err := shared.Accounting()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(table.Rows))
	}
	if table.Rows[0][2] != "0 nJ/bit (modem already on)" {
		t.Errorf("marginal upload row = %v", table.Rows[0])
	}
	// Skew argument: the p25 user's amortised per-subscriber cost must
	// far exceed the p99 user's.
	light := parseLeadingNumber(t, table.Rows[1][2])
	heavy := parseLeadingNumber(t, table.Rows[3][2])
	if light <= heavy {
		t.Errorf("light-user amortised cost %v should exceed heavy-user %v", light, heavy)
	}
}

// parseLeadingNumber extracts the leading float of a cell like
// "12345 nJ/bit".
func parseLeadingNumber(t *testing.T, s string) float64 {
	t.Helper()
	var x float64
	seen := false
	for _, r := range s {
		if r >= '0' && r <= '9' {
			x = x*10 + float64(r-'0')
			seen = true
			continue
		}
		break
	}
	if !seen {
		t.Fatalf("no leading number in %q", s)
	}
	return x
}

func TestProvisioning(t *testing.T) {
	table, err := shared.Provisioning()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) < 2 {
		t.Fatalf("rows = %d, want system + per-ISP", len(table.Rows))
	}
	if table.Rows[0][0] != "system" {
		t.Errorf("first row should be the system scope: %v", table.Rows[0])
	}
	// Peak reduction positive for the system.
	if got := parsePercent(t, table.Rows[0][3]); got <= 0 {
		t.Errorf("system peak reduction = %v%%, want positive", got)
	}
}

func TestScaleSweep(t *testing.T) {
	table, err := shared.ScaleSweep([]float64{0.001, 0.003})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(table.Rows))
	}
	// Aggregate offload grows with scale: bigger traces, bigger swarms.
	small := parsePercent(t, table.Rows[0][2])
	large := parsePercent(t, table.Rows[1][2])
	if large <= small {
		t.Errorf("offload should grow with scale: %v%% at 0.001 vs %v%% at 0.003", small, large)
	}
}

func TestScaleSweepDefaultScales(t *testing.T) {
	cases := []struct {
		scale float64
		want  []float64
	}{
		{0.01, []float64{0.005, 0.01, 0.02, 0.05}},
		{0.003, []float64{0.0015, 0.003, 0.006, 0.015}},
		{0.3, []float64{0.15, 0.3, 0.6}},
		{1, []float64{0.5, 1}},
	}
	for _, tc := range cases {
		if got := sweepScales(tc.scale); !slices.Equal(got, tc.want) {
			t.Errorf("sweepScales(%g) = %v, want %v", tc.scale, got, tc.want)
		}
	}
}

func TestAblationTopology(t *testing.T) {
	ds, err := NewSuite(Config{}).AblationTopology()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Series) != 4 {
		t.Fatalf("series = %d, want 4", len(ds.Series))
	}
	// A flatter metro (fewer exchanges) localises more easily at small
	// capacities: at c = 1 the 50/2 shape should save at least as much as
	// the 1000/20 shape.
	var flat, dense float64
	for _, s := range ds.Series {
		y := interpolate(s.Points, 1.0)
		switch s.Name {
		case "flat metro 50/2":
			flat = y
		case "dense edge 1000/20":
			dense = y
		}
	}
	if flat < dense {
		t.Errorf("flat metro savings %v below dense edge %v at c=1", flat, dense)
	}
}
