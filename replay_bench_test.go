// Benchmarks of the Replay API: one 14-day workload replayed with and
// without an attached metrics sink, so API-layer overhead (job
// plumbing, snapshot fan-out, sink dispatch) shows separately from the
// engine itself (BenchmarkStream) and the serial reference simulator
// (BenchmarkSimulatorMonth).
package consumelocal_test

import (
	"context"
	"testing"
	"time"

	"consumelocal"
)

// benchReplayTrace builds the shared 14-day workload once.
func benchReplayTrace(b *testing.B) *consumelocal.Trace {
	b.Helper()
	cfg := consumelocal.DefaultTraceConfig(0.002)
	cfg.Days = 14
	tr, err := consumelocal.GenerateTrace(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// benchmarkReplay runs one Replay configuration b.N times and reports
// sessions/s throughput.
func benchmarkReplay(b *testing.B, tr *consumelocal.Trace, opts ...consumelocal.Option) {
	b.Helper()
	simCfg := consumelocal.DefaultSimConfig(1)
	simCfg.TrackUsers = false
	opts = append([]consumelocal.Option{
		consumelocal.WithSimConfig(simCfg),
		consumelocal.WithWindow(24 * 3600),
		consumelocal.WithWorkers(4),
	}, opts...)
	b.ResetTimer()
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		job, err := consumelocal.Replay(context.Background(), consumelocal.TraceSource(tr), opts...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := job.Result(); err != nil {
			b.Fatal(err)
		}
		elapsed += time.Since(start)
	}
	b.ReportMetric(float64(len(tr.Sessions))/1000, "ksessions")
	b.ReportMetric(float64(len(tr.Sessions)*b.N)/elapsed.Seconds(), "sessions/s")
}

func BenchmarkReplayStreaming(b *testing.B) {
	benchmarkReplay(b, benchReplayTrace(b))
}

func BenchmarkReplayStreamingMetricsSink(b *testing.B) {
	benchmarkReplay(b, benchReplayTrace(b), consumelocal.WithSink(consumelocal.NewMetricsSink()))
}

// BenchmarkReplayGeneratorSource streams the synthetic generator live
// through the engine: generation and replay overlap, so this is the
// end-to-end cost of a no-trace-file experiment.
func BenchmarkReplayGeneratorSource(b *testing.B) {
	cfg := consumelocal.DefaultTraceConfig(0.002)
	cfg.Days = 14
	simCfg := consumelocal.DefaultSimConfig(1)
	simCfg.TrackUsers = false
	b.ResetTimer()
	var sessions int64
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		src, err := consumelocal.GeneratorSource(cfg)
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		job, err := consumelocal.Replay(context.Background(), src,
			consumelocal.WithSimConfig(simCfg),
			consumelocal.WithWindow(24*3600),
			consumelocal.WithWorkers(4))
		if err != nil {
			b.Fatal(err)
		}
		res, err := job.Result()
		if err != nil {
			b.Fatal(err)
		}
		elapsed += time.Since(start)
		sessions = 0
		for _, sw := range res.Swarms {
			sessions += int64(sw.Sessions)
		}
	}
	b.ReportMetric(float64(sessions)/1000, "ksessions")
	b.ReportMetric(float64(sessions*int64(b.N))/elapsed.Seconds(), "sessions/s")
}
