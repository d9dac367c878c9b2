package engine

import (
	"context"
	"testing"

	"consumelocal/internal/sim"
	"consumelocal/internal/trace"
)

// feedTrace builds a start-ordered trace whose sessions never overlap
// within a swarm: settlement degenerates to single-member intervals, so
// the benchmark isolates the feed→shard→tracker hand-off — validation,
// keying, batching, channel traffic and event scheduling — rather than
// the matching arithmetic.
func feedTrace(n int) *trace.Trace {
	sessions := make([]trace.Session, n)
	for i := range sessions {
		sessions[i] = trace.Session{
			UserID:      uint32(i % 1000),
			ContentID:   uint32(i % 100000),
			ISP:         uint8(i % 5),
			Exchange:    uint16(i % 32),
			StartSec:    int64(i / 100),
			DurationSec: 30,
			Bitrate:     trace.BitrateSD,
		}
	}
	return &trace.Trace{
		Name:       "feed",
		HorizonSec: int64(n/100) + 3600,
		NumUsers:   1000,
		NumContent: 100000,
		NumISPs:    5,
		Sessions:   sessions,
	}
}

// BenchmarkShardBatchFeed measures the batched feed→worker hand-off:
// sessions/s through the sharded pipeline when per-interval settlement
// work is negligible.
func BenchmarkShardBatchFeed(b *testing.B) {
	tr := feedTrace(200000)
	simCfg := sim.DefaultConfig(1.0)
	simCfg.TrackUsers = false
	cfg := Config{Sim: simCfg, Workers: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := Stream(context.Background(), TraceSource(tr), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := run.Result(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Sessions)), "sessions/op")
}

// BenchmarkStreamLiveEvening replays a scale-0.002 live evening through
// Stream with 300 s windows: the settle path of the follow workload,
// where each interval matches about 100 peers, in process.
func BenchmarkStreamLiveEvening(b *testing.B) {
	tr := eveningTrace(b)
	cfg := DefaultConfig(1.0)
	cfg.WindowSec = eveningWindow
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := Stream(context.Background(), TraceSource(tr), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := run.Result(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr.Sessions)), "ns/session")
}
