package experiments

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"consumelocal/internal/stats"
)

// failingWriter errors after a fixed number of successful writes,
// exercising the writers' error propagation.
type failingWriter struct {
	remaining int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.remaining <= 0 {
		return 0, errors.New("sink full")
	}
	w.remaining--
	return len(p), nil
}

// testConfig is a fast experiment configuration for unit tests.
func testConfig() Config {
	return Config{Scale: 0.002, Days: 10, Seed: 3, UploadRatio: 1.0}
}

// shared is the suite the figure tests read, so the month at testConfig
// is generated and replayed once per test binary.
var shared = NewSuite(testConfig())

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Scale <= 0 || cfg.Days <= 0 || cfg.UploadRatio <= 0 {
		t.Errorf("default config has zero knobs: %+v", cfg)
	}
}

func TestWithDefaultsFillsZeroes(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Scale != DefaultConfig().Scale {
		t.Errorf("withDefaults did not fill: %+v", cfg)
	}
	// Explicit values survive.
	cfg = Config{Scale: 0.5, Days: 3}.withDefaults()
	if cfg.Scale != 0.5 || cfg.Days != 3 {
		t.Errorf("withDefaults overwrote explicit values: %+v", cfg)
	}
}

func TestTableRendering(t *testing.T) {
	table := &Table{
		Title:   "T",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
	}
	var tsv bytes.Buffer
	if err := table.WriteTSV(&tsv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tsv.String(), "a\tlong-column") {
		t.Errorf("TSV missing header: %q", tsv.String())
	}
	if !strings.Contains(tsv.String(), "333\t4") {
		t.Errorf("TSV missing row: %q", tsv.String())
	}

	var txt bytes.Buffer
	if err := table.RenderText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "T") || !strings.Contains(txt.String(), "333") {
		t.Errorf("text rendering incomplete: %q", txt.String())
	}
}

func TestDatasetRendering(t *testing.T) {
	ds := &Dataset{
		Title:  "D",
		XLabel: "x",
		YLabel: "y",
		Series: []Series{
			{Name: "s1", Points: []stats.Point{{X: 1, Y: 2}, {X: 3, Y: 4}}},
			{Name: "empty"},
		},
	}
	var tsv bytes.Buffer
	if err := ds.WriteTSV(&tsv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tsv.String(), "s1\t1\t2") {
		t.Errorf("TSV missing point: %q", tsv.String())
	}
	var txt bytes.Buffer
	if err := ds.RenderText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "(empty)") {
		t.Errorf("text rendering should mark empty series: %q", txt.String())
	}
}

func TestWritersPropagateErrors(t *testing.T) {
	table := &Table{
		Title:   "T",
		Columns: []string{"a"},
		Rows:    [][]string{{"1"}, {"2"}},
	}
	ds := &Dataset{
		Title:  "D",
		XLabel: "x",
		YLabel: "y",
		Series: []Series{
			{Name: "s1", Points: []stats.Point{{X: 1, Y: 2}, {X: 3, Y: 4}}},
			{Name: "s2", Points: []stats.Point{{X: 5, Y: 6}, {X: 7, Y: 8}}},
		},
	}
	// Every prefix length of successful writes (below the smallest
	// artifact's write count) must still surface the eventual failure.
	for failAt := 0; failAt < 3; failAt++ {
		if err := table.WriteTSV(&failingWriter{remaining: failAt}); err == nil {
			t.Errorf("table WriteTSV with failure at %d: expected error", failAt)
		}
		if err := table.RenderText(&failingWriter{remaining: failAt}); err == nil {
			t.Errorf("table RenderText with failure at %d: expected error", failAt)
		}
		if err := ds.WriteTSV(&failingWriter{remaining: failAt}); err == nil {
			t.Errorf("dataset WriteTSV with failure at %d: expected error", failAt)
		}
		if err := ds.RenderText(&failingWriter{remaining: failAt}); err == nil {
			t.Errorf("dataset RenderText with failure at %d: expected error", failAt)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if got := formatCount(1234567); got != "1,234,567" {
		t.Errorf("formatCount = %q", got)
	}
	if got := formatCount(999); got != "999" {
		t.Errorf("formatCount = %q", got)
	}
	if got := formatCount(1000); got != "1,000" {
		t.Errorf("formatCount = %q", got)
	}
	if got := formatPercent(0.247); got != "24.7%" {
		t.Errorf("formatPercent = %q", got)
	}
	if got := formatFloat(0.5); got != "0.5" {
		t.Errorf("formatFloat = %q", got)
	}
}

func TestTable1(t *testing.T) {
	table, err := shared.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 5 {
		t.Fatalf("Table1 has %d rows, want 5", len(table.Rows))
	}
	if len(table.Columns) != 3 {
		t.Fatalf("Table1 has %d columns, want 3 (metric + two months)", len(table.Columns))
	}
	// Users < IP-sharing users? The IP count must be below the user count
	// (Table I: users share public IPs).
	users := table.Rows[0]
	ips := table.Rows[1]
	for col := 1; col <= 2; col++ {
		if parseCount(t, ips[col]) >= parseCount(t, users[col]) {
			t.Errorf("column %d: IPs (%s) should be fewer than users (%s)", col, ips[col], users[col])
		}
	}
	// The second month models service growth: more users.
	if parseCount(t, users[2]) <= parseCount(t, users[1]) {
		t.Errorf("jul-2014 users (%s) should exceed sep-2013 (%s)", users[2], users[1])
	}
}

func parseCount(t *testing.T, s string) int {
	t.Helper()
	n := 0
	for _, r := range s {
		if r == ',' {
			continue
		}
		if r < '0' || r > '9' {
			t.Fatalf("not a count: %q", s)
		}
		n = n*10 + int(r-'0')
	}
	return n
}

func TestTable3MatchesPaper(t *testing.T) {
	table := Table3()
	if len(table.Rows) != 3 {
		t.Fatalf("Table3 has %d rows", len(table.Rows))
	}
	if table.Rows[0][1] != "345" || table.Rows[1][1] != "9" || table.Rows[2][1] != "1" {
		t.Errorf("Table3 counts wrong: %+v", table.Rows)
	}
	if table.Rows[0][2] != "0.3%" { // 1/345 = 0.29% rounds to 0.3%
		t.Errorf("exchange probability cell = %q", table.Rows[0][2])
	}
	if table.Rows[1][2] != "11.1%" {
		t.Errorf("pop probability cell = %q", table.Rows[1][2])
	}
	if table.Rows[2][2] != "100.0%" {
		t.Errorf("core probability cell = %q", table.Rows[2][2])
	}
}

func TestTable4MatchesPaper(t *testing.T) {
	table := Table4()
	if len(table.Columns) != 3 {
		t.Fatalf("Table4 columns = %v", table.Columns)
	}
	// Spot-check the γs row: 211.1 (Valancius) and 281.3 (Baliga).
	if table.Rows[0][1] != "211.1" || table.Rows[0][2] != "281.3" {
		t.Errorf("server row = %v", table.Rows[0])
	}
	// γcdn row.
	if table.Rows[2][1] != "1050.0" || table.Rows[2][2] != "142.5" {
		t.Errorf("cdn row = %v", table.Rows[2])
	}
}
