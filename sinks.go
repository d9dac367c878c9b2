package consumelocal

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"consumelocal/internal/engine"
	"consumelocal/internal/obs"
)

// Sink observes a replay job from the side: every windowed snapshot, and
// then the final outcome exactly once, while Job.Snapshots is still
// open. Sinks run on the engine's collector goroutine, ahead of
// Job.Snapshots, while the feed reads on from the source — a slow sink
// slows the replay (that is the point: sinks are part of the pipeline,
// not a lossy tap), and a sink error aborts it: the failed sink gets no
// further snapshots.
type Sink = engine.Sink

// NDJSONSink streams every snapshot as one JSON line to w — the format
// consumelocald serves — and, on success, a closing summary line:
//
//	{"summary":{"swarms":…,"total":{…},"offload":…}}
func NDJSONSink(w io.Writer) Sink { return &ndjsonSink{enc: json.NewEncoder(w)} }

type ndjsonSink struct{ enc *json.Encoder }

func (s *ndjsonSink) Snapshot(snap StreamSnapshot) error { return s.enc.Encode(snap) }

func (s *ndjsonSink) Finish(res *SimResult, err error) error {
	if err != nil || res == nil {
		return nil
	}
	type summary struct {
		Swarms  int     `json:"swarms"`
		Total   Tally   `json:"total"`
		Offload float64 `json:"offload"`
	}
	return s.enc.Encode(struct {
		Summary summary `json:"summary"`
	}{summary{Swarms: len(res.Swarms), Total: res.Total, Offload: res.Total.Offload()}})
}

// TSVSink writes one gnuplot-ready tab-separated row per snapshot:
// window bounds, sessions seen, active members, swarm count, cumulative
// traffic split and offload. The header row is written lazily before the
// first snapshot.
func TSVSink(w io.Writer) Sink { return &tsvSink{w: w} }

type tsvSink struct {
	w      io.Writer
	header bool
}

func (s *tsvSink) Snapshot(snap StreamSnapshot) error {
	if !s.header {
		s.header = true
		if _, err := fmt.Fprintln(s.w, "window\tfrom_sec\tto_sec\tsessions\tactive\tswarms\ttotal_bits\tserver_bits\tpeer_bits\toffload"); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(s.w, "%d\t%d\t%d\t%d\t%d\t%d\t%.0f\t%.0f\t%.0f\t%.6f\n",
		snap.Index, snap.FromSec, snap.ToSec, snap.SessionsSeen, snap.ActiveMembers,
		snap.Swarms, snap.Cumulative.TotalBits, snap.Cumulative.ServerBits,
		snap.Cumulative.PeerBits(), snap.Cumulative.Offload())
	return err
}

func (s *tsvSink) Finish(*SimResult, error) error { return nil }

// MetricsSink exposes the latest replay state as Prometheus-style
// gauges. It is safe for concurrent use: the replay's collector goroutine
// writes while any number of scrapers read, so one sink can back a live
// /metrics endpoint for a running replay (it implements http.Handler).
type MetricsSink struct {
	mu      sync.Mutex
	snap    StreamSnapshot
	windows int
	done    bool
	fail    string
	// vals and buf are scrape scratch, reused across WritePrometheus
	// calls so steady-state scrapes do not allocate.
	vals []float64
	buf  []byte
}

// NewMetricsSink returns an empty metrics sink.
func NewMetricsSink() *MetricsSink { return &MetricsSink{} }

// Snapshot implements Sink.
func (m *MetricsSink) Snapshot(snap StreamSnapshot) error {
	m.mu.Lock()
	m.snap = snap
	m.windows++
	m.mu.Unlock()
	return nil
}

// Finish implements Sink.
func (m *MetricsSink) Finish(res *SimResult, err error) error {
	m.mu.Lock()
	m.done = true
	if err != nil {
		m.fail = err.Error()
	}
	m.mu.Unlock()
	return nil
}

// metricsSchema is the single definition of the sink's series: name,
// help and exposition order, shared by Gauges and WritePrometheus so
// the two can never drift apart.
var metricsSchema = []struct{ name, help string }{
	{"consumelocal_replay_windows_total", "Windowed snapshots observed by this sink."},
	{"consumelocal_replay_sessions_seen", "Sessions admitted by the replay so far."},
	{"consumelocal_replay_active_members", "Swarm members active at the latest window boundary."},
	{"consumelocal_replay_swarms", "Distinct swarms seen so far."},
	{"consumelocal_replay_total_bits", "Cumulative bits demanded."},
	{"consumelocal_replay_server_bits", "Cumulative bits served by the CDN/server."},
	{"consumelocal_replay_peer_bits", "Cumulative bits served peer-to-peer."},
	{"consumelocal_replay_offload", "Cumulative offload fraction (peer bits / total bits)."},
	{"consumelocal_replay_done", "1 once the replay has finished."},
	{"consumelocal_replay_failed", "1 if the replay finished with an error."},
}

// collectLocked appends the gauge values in schema order. Callers hold
// m.mu.
func (m *MetricsSink) collectLocked(vals []float64) []float64 {
	done, failed := 0.0, 0.0
	if m.done {
		done = 1
	}
	if m.fail != "" {
		failed = 1
	}
	return append(vals,
		float64(m.windows),
		float64(m.snap.SessionsSeen),
		float64(m.snap.ActiveMembers),
		float64(m.snap.Swarms),
		m.snap.Cumulative.TotalBits,
		m.snap.Cumulative.ServerBits,
		m.snap.Cumulative.PeerBits(),
		m.snap.Cumulative.Offload(),
		done,
		failed,
	)
}

// Gauges returns the current gauge values by metric name. The map is
// built per call — scrape paths use WritePrometheus, which reuses the
// sink's internal buffer instead.
func (m *MetricsSink) Gauges() map[string]float64 {
	m.mu.Lock()
	vals := m.collectLocked(make([]float64, 0, len(metricsSchema)))
	m.mu.Unlock()
	g := make(map[string]float64, len(metricsSchema))
	for i, s := range metricsSchema {
		g[s.name] = vals[i]
	}
	return g
}

// WritePrometheus renders the gauges in Prometheus text exposition
// format. The rendering reuses the sink's scratch buffer, so
// steady-state scrapes are allocation-free; the sink's lock is held
// across the write to keep the buffer stable, so concurrent scrapers
// serialise against each other and against snapshot delivery.
func (m *MetricsSink) WritePrometheus(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.vals = m.collectLocked(m.vals[:0])
	buf := m.buf[:0]
	for i, s := range metricsSchema {
		buf = obs.AppendHelp(buf, s.name, s.help)
		buf = obs.AppendType(buf, s.name, obs.TypeGauge)
		buf = obs.AppendSample(buf, s.name, "", m.vals[i])
	}
	m.buf = buf
	//consumelocal:ignore lockscope lock intentionally held across the write so the scratch buffer stays stable; scrapers serialise by design
	_, err := w.Write(buf)
	return err
}

// ServeHTTP makes the sink a drop-in /metrics handler.
func (m *MetricsSink) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = m.WritePrometheus(w)
}
