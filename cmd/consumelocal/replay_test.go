package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"consumelocal"
)

// writeTestTrace generates a small trace CSV on disk through the CLI's
// own tracegen path.
func writeTestTrace(t *testing.T) string {
	t.Helper()
	var csv bytes.Buffer
	if err := run([]string{"tracegen", "-scale", "0.0005", "-days", "3"}, &csv); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := os.WriteFile(path, csv.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunReplayTableOutput is the golden-shape run: replay a generated
// trace and check every section of the report is present and plausible.
func TestRunReplayTableOutput(t *testing.T) {
	path := writeTestTrace(t)
	var out bytes.Buffer
	err := run([]string{"replay", "-trace", path, "-window", "21600", "-workers", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"replaying \"synthetic-london\": 3-day horizon, window 21600s, 2 workers",
		"window   sessions    active  traffic  offload",
		"valancius",
		"baliga",
		"final",
		"of traffic served by peers (policy locality-first)",
		"energy savings (valancius):",
		"energy savings (baliga):",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("replay output missing %q:\n%s", want, got)
		}
	}
	// One table row per 6-hour window of a 3-day trace, plus the final
	// row: at least 5 windowed lines ("    42h  ..." rows).
	if rows := regexp.MustCompile(`(?m)^\s*\d+h\s`).FindAllString(got, -1); len(rows) < 5 {
		t.Errorf("replay output has %d windowed report rows, want >= 5:\n%s", len(rows), got)
	}
}

// TestRunReplayNDJSON checks the sink-backed NDJSON mode: every line
// parses, snapshots carry monotone cumulative tallies, and the stream
// closes with the summary line.
func TestRunReplayNDJSON(t *testing.T) {
	path := writeTestTrace(t)
	var out bytes.Buffer
	if err := run([]string{"replay", "-trace", path, "-window", "21600", "-ndjson"}, &out); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var (
		snapshots int
		summaries int
		lastTotal float64
		sawFinal  bool
	)
	for sc.Scan() {
		var line struct {
			Final      bool `json:"final"`
			Cumulative *struct {
				TotalBits float64 `json:"total_bits"`
			} `json:"cumulative"`
			Summary *struct {
				Swarms  int     `json:"swarms"`
				Offload float64 `json:"offload"`
			} `json:"summary"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Summary != nil:
			summaries++
			if line.Summary.Swarms == 0 || line.Summary.Offload <= 0 {
				t.Fatalf("implausible summary line: %s", sc.Text())
			}
		case line.Cumulative != nil:
			snapshots++
			if line.Cumulative.TotalBits < lastTotal {
				t.Fatalf("cumulative tally regressed: %s", sc.Text())
			}
			lastTotal = line.Cumulative.TotalBits
			sawFinal = sawFinal || line.Final
		default:
			t.Fatalf("unrecognised NDJSON line: %s", sc.Text())
		}
	}
	if snapshots < 3 || summaries != 1 || !sawFinal {
		t.Fatalf("NDJSON stream: %d snapshots, %d summaries, final=%v", snapshots, summaries, sawFinal)
	}
}

// TestRunReplayGeneratorSource streams the synthetic generator straight
// into the engine — no trace file at all.
func TestRunReplayGeneratorSource(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"replay", "-generate", "0.0005", "-days", "2", "-window", "21600"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "2-day horizon") || !strings.Contains(got, "energy savings") {
		t.Errorf("generator replay output incomplete:\n%s", got)
	}
}

// TestRunReplayLiveIngest replays the evening-TV broadcast schedule
// through the live ingest path and checks the report reflects a
// watermarked, windowed live replay whose outcome matches a direct
// replay of the materialised schedule.
func TestRunReplayLiveIngest(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"replay", "-live", "0.001"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"replaying \"live-evening\": 1-day horizon",
		"final",
		"of traffic served by peers (policy locality-first)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("live replay output missing %q:\n%s", want, got)
		}
	}
	// The evening is quiet until 18:00 and the watermark advances every
	// hour regardless, so the table must contain idle windowed rows
	// before the first broadcast: at least 18 hourly rows plus final.
	if rows := regexp.MustCompile(`(?m)^\s*\d+h\s`).FindAllString(got, -1); len(rows) < 18 {
		t.Errorf("live replay printed %d windowed rows, want hourly rows across the evening:\n%s", len(rows), got)
	}

	// Same outcome as replaying the materialised schedule directly.
	tr, err := consumelocal.GenerateLiveTrace(consumelocal.DefaultLiveTraceConfig(0.001))
	if err != nil {
		t.Fatal(err)
	}
	job, err := consumelocal.Replay(context.Background(), consumelocal.TraceSource(tr),
		consumelocal.WithUploadRatio(1.0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%.1f%% of traffic served by peers", 100*res.Total.Offload())
	if !strings.Contains(got, want) {
		t.Fatalf("live replay output missing %q:\n%s", want, got)
	}
}

func TestRunReplayFlagValidation(t *testing.T) {
	path := writeTestTrace(t)
	for name, args := range map[string][]string{
		"bad flag":            {"replay", "-bogus"},
		"bad ratio":           {"replay", "-ratio", "nope"},
		"unknown engine":      {"replay", "-trace", path, "-engine", "quantum"},
		"missing trace":       {"replay", "-trace", "/nonexistent/trace.csv"},
		"positional args":     {"replay", "-trace", path, "extra"},
		"generate and trace":  {"replay", "-generate", "0.001", "-trace", path},
		"invalid generate":    {"replay", "-generate", "0.001", "-days", "0"},
		"zero generate":       {"replay", "-generate", "0"},
		"negative generate":   {"replay", "-generate", "-0.5"},
		"negative ratio":      {"replay", "-trace", path, "-ratio", "-2"},
		"zero live":           {"replay", "-live", "0"},
		"live and trace":      {"replay", "-live", "0.001", "-trace", path},
		"live and generate":   {"replay", "-live", "0.001", "-generate", "0.001"},
		"days with live":      {"replay", "-live", "0.001", "-days", "2"},
		"seed without source": {"replay", "-trace", path, "-seed", "7"},
	} {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(args, &out); err == nil {
				t.Errorf("expected error for %v", args)
			}
		})
	}
}

// TestRunReplayMatchesLibrary pins the CLI path to the library: the
// offload figure the CLI reports equals a direct Replay over the same
// file, at the CLI's printed precision.
func TestRunReplayMatchesLibrary(t *testing.T) {
	path := writeTestTrace(t)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src, err := consumelocal.CSVSource(f)
	if err != nil {
		t.Fatal(err)
	}
	job, err := consumelocal.Replay(context.Background(), src, consumelocal.WithUploadRatio(1.0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run([]string{"replay", "-trace", path}, &out); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%.1f%% of traffic served by peers", 100*res.Total.Offload())
	if !strings.Contains(out.String(), want) {
		t.Fatalf("CLI output missing %q:\n%s", want, out.String())
	}
}
