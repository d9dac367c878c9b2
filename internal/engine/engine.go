// Package engine is the streaming counterpart of package sim: an
// event-driven, out-of-core replay engine that consumes a session trace
// as an arrival-ordered stream and simulates the paper's hybrid CDN
// without ever materialising the full trace in memory.
//
// Where sim.Run groups the whole trace into swarms up front and sweeps
// each swarm's activity intervals in isolation, the engine turns every
// session into start/end events as it arrives, maintains incremental
// per-swarm activity state (swarm.Tracker), and settles each activity
// interval — matching peers with the same internal/matching policies and
// the same Eq. 2 budget — as soon as the arrival watermark guarantees the
// interval can no longer change. Per-swarm accounting is therefore the
// same sequence of floating-point operations as the batch simulator:
// cumulative per-swarm tallies and the key-ordered grand total are
// bit-for-bit identical to sim.Run, while cross-swarm aggregates (day
// grid, user ledgers) sum the same contributions in shard order and so
// agree with it within floating-point associativity (~1e-12 relative).
//
// The event stream is sharded across workers by swarm key — swarms are
// independent, so the partition is exact — and results merge in
// deterministic key order, so per-swarm statistics and the total are
// invariant to the worker count. The feed goroutine reads, shards and
// marks window boundaries without waiting for the workers to settle
// them; a collector goroutine merges each mark's worker deltas into a
// windowed Snapshot, hands it to every attached Sink and then to a
// bounded channel. When a sink or the channel consumer lags, the
// pipeline blocks all the way back to the input reader
// (backpressure), which bounds the data in flight. Per-swarm state is
// bounded in two parts. Every swarm seen keeps a summary of about 100
// bytes, plus its map entry, which the result reads. The buffers that
// settling needs (tracker, member slots, kept exchange order) are held
// only by live swarms and by a per-worker pool of the sets idle swarms
// handed back, each of a few KiB at most, so that part follows the live
// swarms. Run is the one handle on a replay in progress: the library's
// consumelocal.Job is this type.
package engine

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"consumelocal/internal/obs"
	"consumelocal/internal/sim"
	"consumelocal/internal/swarm"
	"consumelocal/internal/trace"
)

// Config parameterises a streaming replay.
type Config struct {
	// Sim is the simulation configuration, shared verbatim with the batch
	// simulator: policy, swarm formation, upload capacity model,
	// quantization, seeding, participation, user tracking.
	Sim sim.Config
	// WindowSec is the reporting window: a Snapshot is emitted each time
	// the arrival watermark crosses a multiple of it. Defaults to 3600
	// (hourly snapshots).
	WindowSec int64
	// Workers is the number of shard workers the event stream is
	// partitioned across by swarm key. Defaults to GOMAXPROCS, capped at
	// 64.
	Workers int
	// Sinks observe the run in order, each snapshot ahead of the
	// Snapshots channel (see Sink).
	Sinks []Sink
	// Stats, when non-nil, receives per-stage instrumentation: the feed
	// times every source read, the collector every snapshot hand-off
	// (sinks plus channel), and workers time every settlement, both the
	// Advance an arriving session makes and each window mark. The three
	// stages run at once, so their totals overlap in wall time. That
	// costs two clock reads per session on each of the read and settle
	// stages plus two per window mark; without Stats the clock is never
	// read.
	Stats *obs.ReplayMetrics
}

// snapshotBuffer is how many windows a consumer may lag by: the
// Snapshots channel holds snapshotBuffer-1 of them and the collector
// holds one more while it waits to hand it over. A consumer lagging
// further stalls the collector, then the feed at its next mark, and
// backpressure propagates through the workers to the input reader. A
// few windows of slack absorb a consumer's per-window jitter, while a
// stalled consumer pins no more than a handful of snapshots.
const snapshotBuffer = 4

// Sink observes a run from the side: every windowed snapshot, then the
// final outcome exactly once. Sinks run on the collector goroutine,
// each snapshot reaching every sink before the Snapshots channel, while
// the feed reads on from the source — a slow sink slows the replay
// (sinks are part of the pipeline, not a lossy tap), and the first sink
// error aborts it: a failed sink gets no further snapshots.
type Sink interface {
	// Snapshot consumes one windowed progress report.
	Snapshot(Snapshot) error
	// Finish is called once, after the last snapshot and while
	// Snapshots is still open, with the final outcome: (result, nil) on
	// success, (nil, err) on failure or cancellation. An error fails an
	// otherwise-successful run.
	Finish(*sim.Result, error) error
}

// DefaultConfig returns the paper's simulation configuration at the
// given q/β ratio with hourly reporting windows.
func DefaultConfig(uploadRatio float64) Config {
	return Config{Sim: sim.DefaultConfig(uploadRatio)}
}

// withDefaults fills zero-value fields.
func (c Config) withDefaults() Config {
	c.Sim = c.Sim.WithDefaults()
	if c.WindowSec <= 0 {
		c.WindowSec = 3600
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers > 64 {
		c.Workers = 64
	}
	return c
}

// Snapshot is one windowed progress report of a streaming replay.
//
// Delta attributes traffic at settlement time: an activity interval's
// bits are booked in the window during which the interval closed, so a
// long-lived interval settles in the window containing its end. The
// Cumulative tally converges to the batch simulator's total as the
// stream drains.
type Snapshot struct {
	// Index is the zero-based window index.
	Index int `json:"index"`
	// FromSec / ToSec bound the window in trace time.
	FromSec int64 `json:"from_sec"`
	ToSec   int64 `json:"to_sec"`
	// SessionsSeen counts sessions consumed from the source so far.
	SessionsSeen int64 `json:"sessions_seen"`
	// ActiveMembers counts currently active swarm members, including
	// post-playback seeding members when SeedRetentionSec is set.
	ActiveMembers int `json:"active_members"`
	// Swarms counts distinct swarms seen so far.
	Swarms int `json:"swarms"`
	// Delta is the traffic settled during this window.
	Delta sim.Tally `json:"delta"`
	// Cumulative is the traffic settled since the start of the stream.
	Cumulative sim.Tally `json:"cumulative"`
	// Final marks the closing snapshot, emitted after the source drains
	// and every remaining interval has settled.
	Final bool `json:"final,omitempty"`
}

// Run is a streaming replay in progress, started by Stream. Consumers
// range Snapshots or call Result, which drains internally; a run that
// is neither drained nor cancelled stalls once the snapshot buffer
// fills (backpressure). Cancel releases every pipeline goroutine.
type Run struct {
	meta      trace.Meta
	cancel    context.CancelFunc
	snapshots chan Snapshot
	done      chan struct{}
	// feedErr is the error that stopped the feed, nil after the final
	// mark. The feed writes it before closing its marks channel, and the
	// collector reads it only after seeing that close.
	feedErr error
	// result and err are written by the collector before it closes done
	// and read only after done is closed, so they need no lock.
	result *sim.Result
	err    error
}

// Meta returns the trace metadata of the stream being replayed.
func (r *Run) Meta() trace.Meta { return r.meta }

// Snapshots returns the windowed progress channel. It is closed after
// the final snapshot — or early, when the run is cancelled or fails.
func (r *Run) Snapshots() <-chan Snapshot { return r.snapshots }

// Done returns a channel closed when the run has fully unwound and
// Result/Err are final.
func (r *Run) Done() <-chan struct{} { return r.done }

// Cancel aborts the replay: the pipeline unwinds promptly, Snapshots
// closes, and Result reports context.Canceled. Safe to call repeatedly
// and after completion.
func (r *Run) Cancel() { r.cancel() }

// Err returns the run's terminal error once it has finished — nil on
// success, context.Canceled after Cancel — and nil while it still runs.
func (r *Run) Err() error {
	select {
	case <-r.done:
		return r.err
	default:
		return nil
	}
}

// Result blocks until the stream drains and returns the complete
// outcome, equivalent to sim.Run over the same trace and configuration.
// Remaining snapshots are drained internally, so Result may be called
// with or without a concurrent Snapshots consumer.
func (r *Run) Result() (*sim.Result, error) {
	for range r.snapshots {
	}
	<-r.done
	return r.result, r.err
}

// Stream starts replaying src under ctx and cfg. A ctx already
// cancelled returns ctx.Err() at once; the configuration and metadata
// are validated synchronously too. The shard pipeline then runs in the
// background: progress reaches the sinks and Run.Snapshots, the final
// outcome Run.Result.
//
// The feed goroutine reads the source and broadcasts window marks; the
// collector goroutine turns each mark into a snapshot for the sinks and
// Run.Snapshots while the feed reads on. When ctx is cancelled, or
// Run.Cancel is called, the feed stops reading the source, the
// collector stops emitting snapshots, the worker inputs close and the
// pipeline unwinds, so every pipeline goroutine exits even if the
// snapshot consumer has walked away. Run.Result then reports
// ctx.Err(). A worker or sink failure cancels the run's context the
// same way. Cancellation is observed between sessions and at every
// channel hand-off; it cannot interrupt a plain Source blocked inside
// Next (a LiveSource blocks ctx-aware in NextEvent, so live replays
// unwind even while the producer is silent).
func Stream(ctx context.Context, src Source, cfg Config) (*Run, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if err := cfg.Sim.Validate(); err != nil {
		return nil, err
	}
	meta := src.Meta()
	if err := meta.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	ctx, cancel := context.WithCancel(ctx)
	r := &Run{
		meta:      meta,
		cancel:    cancel,
		snapshots: make(chan Snapshot, snapshotBuffer-1),
		done:      make(chan struct{}),
	}
	inputs := make([]chan wmsg, cfg.Workers)
	acks := make([]chan ack, cfg.Workers)
	reports := make(chan report, cfg.Workers)
	for i := range inputs {
		inputs[i] = make(chan wmsg, 4)
		// The feed broadcasts mark k+1 only after the collector has taken
		// mark k, which it does only after reading every ack of mark k-1:
		// a worker holds at most two unread acks, so its sends never block.
		acks[i] = make(chan ack, 2)
		go newWorker(i, cfg, meta).run(inputs[i], acks[i], reports)
	}
	marks := make(chan window)
	go func() {
		defer close(marks)
		r.feedErr = r.feed(ctx, src, cfg, inputs, marks)
	}()
	go r.collect(ctx, cfg, marks, acks, reports)
	return r, nil
}

// item is one sharded session in flight to a worker.
type item struct {
	sess    trace.Session
	key     swarm.Key
	origDur int32
}

// sessionBatchSize is how many sessions a worker batch carries. Batching
// the feed→worker hand-off cuts channel operations by roughly two orders
// of magnitude versus one send per session — channel synchronisation was
// the dominant pipeline overhead, not the sends' payload.
const sessionBatchSize = 256

// batchPool recycles batch slices between the feed and the workers, so
// the steady-state hand-off allocates nothing but the pool's pointer
// box (one small allocation per batch, ~1/256th of a per-session cost).
var batchPool = sync.Pool{
	New: func() any {
		b := make([]item, 0, sessionBatchSize)
		return &b
	},
}

func getBatch() []item {
	return (*batchPool.Get().(*[]item))[:0]
}

func putBatch(b []item) {
	b = b[:0]
	batchPool.Put(&b)
}

// wmsg is one message on a worker's input channel: either a batch of
// sessions assigned to the worker's shard, or a window mark instructing
// the worker to settle activity up to a boundary and report its delta.
type wmsg struct {
	mark  bool
	final bool
	until int64
	batch []item
}

// ack is a worker's reply to one window mark.
type ack struct {
	delta  sim.Tally
	active int
	swarms int
	err    error
}

// report is a worker's final shard outcome.
type report struct {
	worker int
	stats  []sim.SwarmStats
	days   [][]sim.Tally
	users  map[uint32]*sim.UserStats
	err    error
}

// window is the feed's bookkeeping for one broadcast mark, handed to the
// collector in mark order: everything the snapshot needs that the
// workers' acks do not carry, taken when the mark was sent.
type window struct {
	index    int
	from, to int64
	sessions int64
	final    bool
}

// feed is the pipeline's first stage: it pulls sessions from the
// source, shards them across workers by swarm key, and broadcasts a
// window mark whenever the arrival watermark crosses a boundary,
// handing the window's bookkeeping to the collector and reading on
// without waiting for the workers to settle it. It returns the error
// that stopped it, or nil once the final mark is handed over, and
// closes the worker inputs on the way out.
//
// Liveness invariant: workers ack on channels that always have room
// (see Stream) and send one report each on a channel buffered to the
// worker count, so they always drain their inputs and exit when the
// feed closes them. The feed itself blocks only in the source, on a
// worker input or handing a mark to the collector; the last two select
// on ctx, and the collector cancels ctx when it fails, so the feed
// unwinds whichever side stops first.
func (r *Run) feed(ctx context.Context, src Source, cfg Config, inputs []chan wmsg, marks chan<- window) error {
	var (
		sessionsSeen int64
		prevStart    int64 = -1
		windowIdx    int
		boundary     = cfg.WindowSec
		ferr         error
		// pend accumulates each shard's in-flight session batch; a batch
		// is handed off when full or ahead of a window mark.
		pend = make([][]item, cfg.Workers)
	)

	// sendBatch hands shard i's pending batch to its worker. It reports
	// false (and records the cancellation) once ctx is done.
	sendBatch := func(i int) bool {
		select {
		case inputs[i] <- wmsg{batch: pend[i]}:
			pend[i] = nil
			return true
		case <-ctx.Done():
			ferr = ctx.Err()
			return false
		}
	}

	// mark broadcasts a window mark to every worker, then hands the
	// window to the collector. Pending batches are handed off first:
	// every session arriving ahead of the mark must reach its worker
	// ahead of it. A window is handed over only once every worker has its
	// mark, so the collector can read one ack from each. It reports false
	// once ctx is done.
	mark := func(until int64, final bool) bool {
		msg := wmsg{mark: true, final: final, until: until}
		for i := range inputs {
			if len(pend[i]) > 0 && !sendBatch(i) {
				return false
			}
			select {
			case inputs[i] <- msg:
			case <-ctx.Done():
				ferr = ctx.Err()
				return false
			}
		}
		win := window{index: windowIdx, from: int64(windowIdx) * cfg.WindowSec, to: until, sessions: sessionsSeen, final: final}
		if final {
			win.to = max(r.meta.HorizonSec, win.from)
		}
		select {
		case marks <- win:
			return true
		case <-ctx.Done():
			ferr = ctx.Err()
			return false
		}
	}

	// A LiveSource delivers watermark marks interleaved with sessions and
	// blocks ctx-aware, so a cancelled replay unwinds even while the
	// producer is silent.
	live, isLive := src.(LiveSource)

	for ferr == nil {
		if err := ctx.Err(); err != nil {
			ferr = err
			break
		}
		var t0 time.Time
		if cfg.Stats != nil {
			t0 = time.Now()
		}
		var ev Event
		var err error
		if isLive {
			ev, err = live.NextEvent(ctx)
		} else {
			ev.Session, err = src.Next()
		}
		if cfg.Stats != nil {
			// Read time includes waits on a live producer.
			cfg.Stats.SourceReadSeconds.Add(time.Since(t0).Seconds())
			if err == nil && !ev.Mark {
				cfg.Stats.SourceSessions.Inc()
			}
		}
		if err == nil && ev.Mark {
			// The watermark promises no session will start before it:
			// settle every reporting window the promise closes, then
			// raise the ordering floor so a later session violating the
			// promise is rejected like any out-of-order arrival.
			wm := ev.WatermarkSec
			if wm > r.meta.HorizonSec {
				wm = r.meta.HorizonSec
			}
			for wm >= boundary {
				if !mark(boundary, false) {
					break
				}
				windowIdx++
				boundary += cfg.WindowSec
			}
			if ev.WatermarkSec > prevStart {
				prevStart = ev.WatermarkSec
			}
			continue
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			// Cancellation often surfaces as a source read error first
			// (e.g. an HTTP body closed by the disconnecting client);
			// report the cancellation, not the secondary error.
			if cerr := ctx.Err(); cerr != nil {
				ferr = cerr
			} else {
				ferr = fmt.Errorf("engine: read source: %w", err)
			}
			break
		}
		s := ev.Session
		if err := r.meta.ValidateSession(sessionsSeen, s); err != nil {
			ferr = fmt.Errorf("engine: %w", err)
			break
		}
		if s.StartSec < prevStart {
			ferr = fmt.Errorf("engine: session %d out of start order", sessionsSeen)
			break
		}
		prevStart = s.StartSec
		sessionsSeen++

		key := swarm.KeyOf(s, cfg.Sim.Swarm)
		origDur := s.DurationSec
		if tick := cfg.Sim.QuantizeTickSec; tick > 0 {
			// Snap boundaries outward to Δτ ticks, exactly as the batch
			// simulator's quantize step does.
			start := s.StartSec / tick * tick
			end := (s.EndSec() + tick - 1) / tick * tick
			s.StartSec = start
			s.DurationSec = int32(end - start)
		}

		marked := s.StartSec >= boundary
		for s.StartSec >= boundary {
			if !mark(boundary, false) {
				break
			}
			windowIdx++
			boundary += cfg.WindowSec
		}
		if ferr != nil {
			break
		}
		if marked {
			// Hand this CPU to the woken workers before reading on: on a
			// box with as many CPUs as workers, a feed that keeps running
			// leaves them one CPU fewer to settle the mark on, and the
			// snapshot comes out later.
			runtime.Gosched()
		}
		shard := shardOf(key, cfg.Workers)
		if pend[shard] == nil {
			pend[shard] = getBatch()
		}
		pend[shard] = append(pend[shard], item{sess: s, key: key, origDur: origDur})
		if len(pend[shard]) == sessionBatchSize && !sendBatch(shard) {
			break
		}
	}

	// Final mark: settle everything pending (including activity past the
	// last window boundary and beyond the horizon), unless the run
	// already failed.
	if ferr == nil {
		mark(math.MaxInt64, true)
	}
	for i := range inputs {
		close(inputs[i])
	}
	return ferr
}

// collect is the pipeline's second stage: it takes the feed's windows
// in mark order, merges each mark's worker acks in worker order into a
// snapshot and emits it, and after the final mark gathers the workers'
// reports into the result. It settles the run's outcome and closes
// Snapshots and done once the feed has returned (the feed's marks
// channel closes after it does).
//
// Errors keep the order a serial replay would meet them in: a worker or
// sink failure at mark k comes before anything the feed met after
// handing mark k over, so it is the run's error even when the feed has
// failed on its own since. On failure the collector cancels the run's
// context, so the feed unwinds even while blocked in a LiveSource, and
// reads on the acks of every window still handed over, so no worker
// holds more unread acks than its channel buffers.
func (r *Run) collect(ctx context.Context, cfg Config, marks <-chan window, acks []chan ack, reports <-chan report) {
	defer close(r.done)
	defer close(r.snapshots)
	defer r.finish(cfg.Sinks)

	var (
		cum sim.Tally
		err error
	)
	//consumelocal:ignore ctxsend the feed closes marks when it returns: at the end of the source, on its own error, or once ctx is done, which any failure here brings about
	for win := range marks {
		var (
			delta          sim.Tally
			active, swarms int
		)
		for _, ch := range acks {
			//consumelocal:ignore ctxsend a window is handed over only once every worker has its mark, and each worker acks every mark once, so this receive cannot stall
			a := <-ch
			delta.Add(a.delta)
			active += a.active
			swarms += a.swarms
			if a.err != nil && err == nil {
				err = a.err
			}
		}
		if err == nil {
			cum.Add(delta)
			snap := Snapshot{
				Index:         win.index,
				FromSec:       win.from,
				ToSec:         win.to,
				SessionsSeen:  win.sessions,
				ActiveMembers: active,
				Swarms:        swarms,
				Delta:         delta,
				Cumulative:    cum,
				Final:         win.final,
			}
			var t0 time.Time
			if cfg.Stats != nil {
				t0 = time.Now()
			}
			err = r.emit(ctx, snap, cfg.Sinks)
			if cfg.Stats != nil {
				// Emit time covers sink delivery and the (possibly
				// backpressured) channel hand-off: the consumer-side stall
				// an operator is usually hunting.
				cfg.Stats.SinkEmitSeconds.Add(time.Since(t0).Seconds())
				cfg.Stats.WindowsSettled.Inc()
			}
		}
		if err != nil {
			// Stop the feed; the loop goes on only to read the acks of the
			// windows it still hands over.
			r.cancel()
		}
	}
	if err == nil {
		err = r.feedErr
	}
	if err == nil {
		shards := make([]report, len(acks))
		for range shards {
			//consumelocal:ignore ctxsend every worker sends its final report exactly once on a buffered channel after the final mark, so this receive cannot stall
			rep := <-reports
			shards[rep.worker] = rep
			if rep.err != nil {
				err = rep.err
			}
		}
		if err == nil {
			r.result = mergeShards(shards, cfg, r.meta)
		}
	}
	r.err = err
}

// emit hands snap to every sink, then to the Snapshots channel. It
// returns the error that stops emission: the first sink failure, or the
// cancellation — which also wins over a sink failing after it (e.g. a
// response writer broken by the same disconnect that cancelled the
// run).
func (r *Run) emit(ctx context.Context, snap Snapshot, sinks []Sink) error {
	for _, s := range sinks {
		if err := s.Snapshot(snap); err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			return fmt.Errorf("replay: sink: %w", err)
		}
	}
	select {
	case r.snapshots <- snap:
		return nil
	case <-ctx.Done():
		// The consumer has walked away and cancelled: stop emitting.
		return ctx.Err()
	}
}

// finish hands the outcome the collector recorded to every sink, then
// releases the run's context, which unregisters the finished run from
// its parent so a long-lived parent does not accumulate completed
// children. The collector defers it ahead of closing Snapshots, so
// Finish runs while the channel is still open and must not try to
// drain it.
func (r *Run) finish(sinks []Sink) {
	defer r.cancel()
	// Every sink observes the replay's own outcome; a sink failing in
	// Finish must not change what the remaining sinks see, it only fails
	// an otherwise-successful run afterwards.
	var sinkErr error
	for _, s := range sinks {
		if err := s.Finish(r.result, r.err); err != nil && sinkErr == nil {
			sinkErr = err
		}
	}
	if r.err == nil && sinkErr != nil {
		r.result, r.err = nil, sinkErr
	}
}

// mergeShards assembles the final result: per-swarm statistics sorted by
// key and totalled in key order — the exact order sim.Run accumulates
// in, making both bit-for-bit identical to the batch run regardless of
// worker count — and day/user aggregates merged in worker order.
//
// The user ledgers are merged in place rather than copied: the first
// shard's map becomes the result's, and each later shard adds into its
// entries or moves its own over for a user new to the map. That is the
// sum a copy into zeroed ledgers makes, bit for bit, since 0 + x == x for
// every ledger value: ledgers sum finite non-negative values and never
// hold −0. The workers are done with their maps once they report.
func mergeShards(shards []report, cfg Config, meta trace.Meta) *sim.Result {
	res := &sim.Result{
		Days:       make([][]sim.Tally, meta.Days()),
		PolicyName: cfg.Sim.Policy.Name(),
		Users:      shards[0].users,
	}
	for d := range res.Days {
		res.Days[d] = make([]sim.Tally, meta.NumISPs)
	}
	var total int
	for _, sh := range shards {
		total += len(sh.stats)
	}
	res.Swarms = make([]sim.SwarmStats, 0, total)
	for _, sh := range shards {
		res.Swarms = append(res.Swarms, sh.stats...)
	}
	sort.Slice(res.Swarms, func(i, j int) bool { return res.Swarms[i].Key.Less(res.Swarms[j].Key) })
	for _, st := range res.Swarms {
		res.Total.Add(st.Tally)
	}
	for i, sh := range shards {
		for d := range sh.days {
			for isp := range sh.days[d] {
				res.Days[d][isp].Add(sh.days[d][isp])
			}
		}
		if i == 0 {
			continue
		}
		for id, u := range sh.users {
			dst := res.Users[id]
			if dst == nil {
				res.Users[id] = u
				continue
			}
			dst.DownloadedBits += u.DownloadedBits
			dst.FromPeersBits += u.FromPeersBits
			dst.UploadedBits += u.UploadedBits
		}
	}
	return res
}

// shardOf assigns a swarm key to a worker by FNV-1a hash: stable across
// runs, independent of arrival order.
func shardOf(k swarm.Key, workers int) int {
	h := uint32(2166136261)
	mix := func(v uint32) {
		for i := 0; i < 4; i++ {
			h ^= v & 0xff
			h *= 16777619
			v >>= 8
		}
	}
	mix(k.Content)
	mix(uint32(uint16(k.ISP)))
	mix(uint32(k.Bitrate))
	return int(h % uint32(workers))
}
