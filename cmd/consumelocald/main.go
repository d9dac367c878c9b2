// Command consumelocald is the long-running service form of the
// reproduction: an asynchronous hybrid-CDN replay job manager built on
// the unified consumelocal.Replay pipeline. Clients submit replay jobs —
// a streamed trace CSV, or the synthetic generator run live — and poll
// state, follow NDJSON snapshots mid-flight, price energy and carbon,
// and cancel, while the daemon enforces a concurrent-replay quota.
//
// Usage:
//
//	consumelocald [-addr :8377] [-max-jobs 4] [-ingest-idle 5m] [-drain 30s] [-data-dir dir] [-pprof addr]
//
// With -data-dir the daemon is durable: every job state transition is
// journalled (fsynced before ingest batches are acknowledged, payload
// included), finished results are persisted, and on restart the
// journal is replayed — finished jobs are re-served byte-identically,
// live ingest jobs are resumed (rebuilt from their creation query and
// re-fed from the journalled batches, bit-for-bit equal to an
// uninterrupted run), non-resumable interrupted jobs are reported
// failed, and the ingest counters pick up where they left off. The
// journal is compacted on startup and online past -journal-compact
// bytes of growth. See docs/DURABILITY.md. Without the flag, state is
// in-memory only, as before.
//
// API:
//
//	POST   /v1/jobs                 start an async replay job (202).
//	                                Body: trace CSV (spooled), or
//	                                ?source=generator with scale, days,
//	                                seed to stream the synthetic workload
//	                                live, or ?source=ingest with horizon,
//	                                users, content, isps (and optional
//	                                epoch, capacity) to open a live ingest
//	                                stream fed through the sessions
//	                                endpoint; watermark=wall (with
//	                                wall_interval, wall_rate) derives
//	                                watermark advances from the daemon
//	                                clock for producers that send none.
//	                                Shared query: ratio, window,
//	                                workers, participation, tick,
//	                                seed_retention, city_wide,
//	                                mixed_bitrates, track_users, name.
//	                                429 once max-jobs replays run.
//	POST   /v1/jobs/{id}/sessions   append a session batch to a live
//	                                ingest job (CSV rows or JSON
//	                                {"sessions":[...]}), optionally
//	                                advancing the arrival watermark
//	                                (?watermark= or "watermark_sec")
//	POST   /v1/jobs/{id}/finish     seal a live ingest stream; the job
//	                                drains and completes
//	GET    /v1/jobs                 list replay jobs
//	GET    /v1/jobs/{id}            one job's status and latest snapshot
//	GET    /v1/jobs/{id}/snapshots  follow snapshots as NDJSON mid-flight
//	DELETE /v1/jobs/{id}            cancel a running replay
//	GET    /v1/jobs/{id}/energy     energy reports under both Table IV models
//	GET    /v1/jobs/{id}/carbon     per-user carbon credit distribution
//	POST   /v1/replay               synchronous form: stream a trace CSV in,
//	                                NDJSON snapshots out on one connection
//	GET    /healthz                 liveness, build and uptime info
//	GET    /metrics                 Prometheus text exposition (see
//	                                docs/OBSERVABILITY.md for the catalogue)
//
// SIGINT/SIGTERM shut the daemon down gracefully: new submissions stop,
// running replays get -drain to finish (then are cancelled), and both
// the service and pprof listeners close cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// daemonConfig is everything runDaemon needs, separated from flag
// parsing so tests can boot the real serve-and-shutdown path on an
// ephemeral port.
type daemonConfig struct {
	addr         string
	pprofAddr    string
	maxJobs      int
	maxBody      int64
	ingestIdle   time.Duration
	drain        time.Duration
	dataDir      string
	compactBytes int64
	logger       *slog.Logger
}

func main() {
	addr := flag.String("addr", ":8377", "listen address")
	maxJobs := flag.Int("max-jobs", defaultMaxJobs, "concurrent replay quota (excess submissions get 429)")
	maxBody := flag.Int64("max-body", defaultMaxBodyBytes, "largest trace CSV a replay submission may upload, in bytes (must be positive; excess gets 413)")
	ingestIdle := flag.Duration("ingest-idle", defaultIngestIdle, "cancel a live ingest job whose producer stays silent this long (0 disables the watchdog)")
	drain := flag.Duration("drain", 30*time.Second, "on SIGINT/SIGTERM, give running replays this long to finish before cancelling them")
	dataDir := flag.String("data-dir", "", "journal job state and persist finished results here, replaying on restart (empty keeps state in-memory only)")
	compactBytes := flag.Int64("journal-compact", defaultCompactBytes, "compact the job journal online once it grows this many bytes past its last compacted size (0 disables online compaction)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this separate listener (e.g. localhost:6060; empty disables)")
	flag.Parse()
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "consumelocald: unexpected arguments")
		os.Exit(2)
	}
	if *maxBody <= 0 {
		fmt.Fprintln(os.Stderr, "consumelocald: -max-body must be positive")
		os.Exit(2)
	}
	if *maxJobs <= 0 {
		fmt.Fprintln(os.Stderr, "consumelocald: -max-jobs must be positive")
		os.Exit(2)
	}
	if *ingestIdle < 0 {
		fmt.Fprintln(os.Stderr, "consumelocald: -ingest-idle must be non-negative")
		os.Exit(2)
	}
	if *drain < 0 {
		fmt.Fprintln(os.Stderr, "consumelocald: -drain must be non-negative")
		os.Exit(2)
	}
	if *compactBytes < 0 {
		fmt.Fprintln(os.Stderr, "consumelocald: -journal-compact must be non-negative")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := runDaemon(ctx, daemonConfig{
		addr:         *addr,
		pprofAddr:    *pprofAddr,
		maxJobs:      *maxJobs,
		maxBody:      *maxBody,
		ingestIdle:   *ingestIdle,
		drain:        *drain,
		dataDir:      *dataDir,
		compactBytes: *compactBytes,
		logger:       logger,
	}, nil)
	if err != nil {
		logger.Error("consumelocald exiting", slog.String("err", err.Error()))
		os.Exit(1)
	}
}

// runDaemon binds the listeners, serves until ctx is cancelled (the
// signal path) or a listener fails, then shuts down gracefully: running
// replays get cfg.drain to finish before being cancelled, and both HTTP
// servers close out their in-flight requests. ready, when non-nil,
// receives the bound service address once requests can be served — the
// seam the daemon tests and the metrics smoke target use with addr
// 127.0.0.1:0.
func runDaemon(ctx context.Context, cfg daemonConfig, ready func(addr string)) error {
	logger := cfg.logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	srv := newServer(cfg.maxJobs)
	if cfg.maxBody > 0 {
		srv.maxBody = cfg.maxBody
	}
	srv.ingestIdle = cfg.ingestIdle
	srv.logger = logger

	// Durability opens — and recovery fully completes — before the
	// listener binds, so no request ever observes a half-recovered
	// registry and there is no "recovering" HTTP state to model.
	if cfg.dataDir != "" {
		srv.compactBytes = cfg.compactBytes
		if err := srv.openDurability(cfg.dataDir); err != nil {
			return fmt.Errorf("open data dir %s: %w", cfg.dataDir, err)
		}
		defer srv.closeDurability()
		rec := srv.recovered
		logger.Info("journal recovered",
			slog.String("data_dir", cfg.dataDir),
			slog.Int("restored", rec.Restored),
			slog.Int("resumed", rec.Resumed),
			slog.Int("resume_failed", rec.ResumeFailed),
			slog.Int("interrupted", rec.Interrupted),
			slog.Int("carried", rec.Carried),
			slog.Int("dropped", rec.Dropped),
			slog.Bool("torn_tail", rec.TornTail),
			slog.Int64("sessions", rec.Sessions),
			slog.Duration("took", time.Duration(rec.DurationMs*float64(time.Millisecond))))
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return fmt.Errorf("bind %s: %w", cfg.addr, err)
	}

	// Profiling stays off the service listener: the job API is what
	// clients reach, the pprof endpoints are an operator tool bound to
	// their own (typically loopback) address. -pprof is an explicit
	// opt-in, so failing to bind it is as fatal as failing to bind -addr.
	var pprofSrv *http.Server
	errc := make(chan error, 2)
	if cfg.pprofAddr != "" {
		pln, err := net.Listen("tcp", cfg.pprofAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("bind pprof %s: %w", cfg.pprofAddr, err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv = &http.Server{Handler: mux}
		logger.Info("pprof listening", slog.String("addr", pln.Addr().String()))
		go func() { errc <- fmt.Errorf("pprof listener: %w", pprofSrv.Serve(pln)) }()
	}

	// No global Read/WriteTimeout: /v1/replay legitimately reads its body
	// and writes snapshots for the whole replay. Slow-loris protection is
	// the header timeout here plus per-request read deadlines covering
	// the pre-registration phase of both submission paths (the async
	// body spool, the sync CSV header); a sync client that stalls after
	// registration holds a visible running job, and DELETE both cancels
	// it and cuts the stalled body read so the quota slot is freed.
	hs := &http.Server{
		Handler:           srv.routes(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	logger.Info("consumelocald listening",
		slog.String("addr", ln.Addr().String()),
		slog.Int("max_jobs", srv.maxJobs))
	go func() { errc <- hs.Serve(ln) }()
	if ready != nil {
		ready(ln.Addr().String())
	}

	select {
	case err := <-errc:
		// A listener died on its own; nothing graceful left to do.
		return err
	case <-ctx.Done():
	}

	logger.Info("shutting down", slog.Duration("drain", cfg.drain))
	// New work gets 503 + Retry-After from here on; a load balancer (or
	// the loadtest supervisor) should fail over rather than queue on a
	// daemon that is tearing down.
	srv.draining.Store(true)
	srv.drainJobs(cfg.drain)
	// With the jobs settled, in-flight handlers (including sync replay
	// streams, which block until their job settles) can finish promptly.
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		logger.Warn("service shutdown incomplete", slog.String("err", err.Error()))
	}
	if pprofSrv != nil {
		if err := pprofSrv.Shutdown(shutCtx); err != nil {
			logger.Warn("pprof shutdown incomplete", slog.String("err", err.Error()))
		}
	}
	logger.Info("shutdown complete")
	return nil
}
