package trace

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	original := smallTrace()
	var buf bytes.Buffer
	if err := original.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}

	restored, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, original, restored)
}

func TestJSONRoundTrip(t *testing.T) {
	original := smallTrace()
	var buf bytes.Buffer
	if err := original.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, original, restored)
}

func TestCSVRoundTripGenerated(t *testing.T) {
	cfg := DefaultGeneratorConfig(0.0005)
	cfg.Days = 3
	original, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := original.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, original, restored)
}

func assertTracesEqual(t *testing.T, a, b *Trace) {
	t.Helper()
	if a.Name != b.Name {
		t.Errorf("Name: %q vs %q", a.Name, b.Name)
	}
	if !a.Epoch.Equal(b.Epoch) {
		t.Errorf("Epoch: %v vs %v", a.Epoch, b.Epoch)
	}
	if a.HorizonSec != b.HorizonSec {
		t.Errorf("Horizon: %d vs %d", a.HorizonSec, b.HorizonSec)
	}
	if a.NumUsers != b.NumUsers || a.NumContent != b.NumContent || a.NumISPs != b.NumISPs {
		t.Errorf("population mismatch: %d/%d/%d vs %d/%d/%d",
			a.NumUsers, a.NumContent, a.NumISPs, b.NumUsers, b.NumContent, b.NumISPs)
	}
	if len(a.Sessions) != len(b.Sessions) {
		t.Fatalf("session counts: %d vs %d", len(a.Sessions), len(b.Sessions))
	}
	for i := range a.Sessions {
		if a.Sessions[i] != b.Sessions[i] {
			t.Fatalf("session %d differs: %+v vs %+v", i, a.Sessions[i], b.Sessions[i])
		}
	}
}

func TestReadSessionsCSV(t *testing.T) {
	const batch = "user,content,isp,exchange,start_sec,duration_sec,bitrate_kbps\n" +
		"1,0,0,10,100,600,1500\n" +
		"2,1,1,20,200,300,3000\n"
	want := []Session{
		{UserID: 1, ContentID: 0, ISP: 0, Exchange: 10, StartSec: 100, DurationSec: 600, Bitrate: BitrateSD},
		{UserID: 2, ContentID: 1, ISP: 1, Exchange: 20, StartSec: 200, DurationSec: 300, Bitrate: BitrateHD},
	}
	got, err := ReadSessionsCSV(strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d sessions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("session %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// The header row is optional: bare rows parse identically.
	bare, err := ReadSessionsCSV(strings.NewReader("1,0,0,10,100,600,1500\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bare) != 1 || bare[0] != want[0] {
		t.Fatalf("headerless batch = %+v", bare)
	}

	if _, err := ReadSessionsCSV(strings.NewReader("1,2,3\n")); err == nil {
		t.Fatal("short record accepted")
	}
	if _, err := ReadSessionsCSV(strings.NewReader("x,0,0,10,100,600,1500\n")); err == nil {
		t.Fatal("malformed user column accepted")
	}
}

func TestReadCSVRejectsMissingMeta(t *testing.T) {
	input := "user,content,isp,exchange,start_sec,duration_sec,bitrate_kbps\n"
	if _, err := ReadCSV(strings.NewReader(input)); err == nil {
		t.Error("expected error for missing #meta line")
	}
}

func TestReadCSVRejectsMalformedMeta(t *testing.T) {
	input := "#meta name=x epoch=not-a-time horizon=100 users=1 content=1 isps=1\n" +
		"user,content,isp,exchange,start_sec,duration_sec,bitrate_kbps\n"
	if _, err := ReadCSV(strings.NewReader(input)); err == nil {
		t.Error("expected error for malformed epoch")
	}
	input = "#meta horizon\n" + "a,b,c,d,e,f,g\n"
	if _, err := ReadCSV(strings.NewReader(input)); err == nil {
		t.Error("expected error for field without '='")
	}
}

func TestReadCSVRejectsBadColumns(t *testing.T) {
	head := "#meta name=x epoch=2013-09-01T00:00:00Z horizon=86400 users=5 content=5 isps=2\n" +
		"user,content,isp,exchange,start_sec,duration_sec,bitrate_kbps\n"

	tests := []struct {
		name string
		row  string
	}{
		{"non-numeric user", "x,0,0,0,0,60,1500\n"},
		{"non-numeric content", "0,x,0,0,0,60,1500\n"},
		{"non-numeric isp", "0,0,x,0,0,60,1500\n"},
		{"non-numeric exchange", "0,0,0,x,0,60,1500\n"},
		{"non-numeric start", "0,0,0,0,x,60,1500\n"},
		{"non-numeric duration", "0,0,0,0,0,x,1500\n"},
		{"non-numeric bitrate", "0,0,0,0,0,60,x\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(head + tt.row)); err == nil {
				t.Error("expected parse error")
			}
		})
	}
}

func TestReadCSVValidatesSemantics(t *testing.T) {
	// Parses fine but the user ID is outside the declared population.
	input := "#meta name=x epoch=2013-09-01T00:00:00Z horizon=86400 users=1 content=1 isps=1\n" +
		"user,content,isp,exchange,start_sec,duration_sec,bitrate_kbps\n" +
		"5,0,0,0,0,60,1500\n"
	if _, err := ReadCSV(strings.NewReader(input)); err == nil {
		t.Error("expected semantic validation error")
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{")); err == nil {
		t.Error("expected error for truncated JSON")
	}
	if _, err := ReadJSON(strings.NewReader(`{"horizon_sec":0}`)); err == nil {
		t.Error("expected semantic validation error")
	}
}

func TestReadCSVIgnoresUnknownMetaKeys(t *testing.T) {
	input := "#meta name=x epoch=2013-09-01T00:00:00Z horizon=86400 users=1 content=1 isps=1 future=42\n" +
		"user,content,isp,exchange,start_sec,duration_sec,bitrate_kbps\n" +
		"0,0,0,0,0,60,1500\n"
	tr, err := ReadCSV(strings.NewReader(input))
	if err != nil {
		t.Fatalf("unknown meta keys should be ignored: %v", err)
	}
	if len(tr.Sessions) != 1 {
		t.Errorf("sessions = %d, want 1", len(tr.Sessions))
	}
}

// TestReadSessionsCSVBytesPerBatch bounds what parsing one live batch
// allocates: the sessions and little else, not a fresh line buffer of
// lineBufSize per call.
func TestReadSessionsCSVBytesPerBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled readers on purpose, so reuse cannot be pinned")
	}
	var body []byte
	for i := range 50 {
		body = AppendSessionCSV(body, Session{UserID: uint32(i), Exchange: 3, StartSec: 64800, DurationSec: 2700, Bitrate: BitrateSD})
	}
	parse := func() {
		got, err := ReadSessionsCSV(bytes.NewReader(body))
		if err != nil || len(got) != 50 {
			t.Fatalf("ReadSessionsCSV = %d sessions, %v", len(got), err)
		}
	}
	parse()
	const calls = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		parse()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	if perCall > 16<<10 {
		t.Fatalf("ReadSessionsCSV allocated %d bytes per 50-row batch, want at most %d", perCall, 16<<10)
	}
}

// TestReadSessionsCSVRecycledReader: a batch parses the same whether its
// pooled reader last served a batch that failed part-way or one whose
// long line grew the buffer.
func TestReadSessionsCSVRecycledReader(t *testing.T) {
	const row = "1,0,0,10,100,600,1500\n"
	want := Session{UserID: 1, Exchange: 10, StartSec: 100, DurationSec: 600, Bitrate: BitrateSD}
	long := strings.Repeat("9", 2*lineBufSize) + ",0,0,10,100,600,1500\n"
	for _, prior := range []string{row + "x,0\n" + row, long} {
		if _, err := ReadSessionsCSV(strings.NewReader(prior)); err == nil {
			t.Fatalf("prior batch %.20q parsed without error", prior)
		}
		for range 3 {
			got, err := ReadSessionsCSV(strings.NewReader(row))
			if err != nil || len(got) != 1 || got[0] != want {
				t.Fatalf("batch after %.20q = %+v, %v", prior, got, err)
			}
		}
	}
}
