// Command itscs-serve runs one I(TS,CS) backend as a long-lived streaming
// service. Participants upload location reports over the mcs TCP
// transport; the pipeline engine slices each fleet's stream into sliding
// windows and runs DETECT→CORRECT→CHECK on every window as it closes; an
// HTTP sidecar exposes health, readiness, metrics, status, results, traces
// and the trust ledger.
//
// The backend itself is internal/node — the same composition the cluster
// tests run behind the router. This command only parses flags into a
// node.Config, logs the startup banner, serves the optional pprof
// listener, and drains the node on SIGINT/SIGTERM:
//
//   - With -data-dir the node is durable: every accepted report is
//     written ahead to a WAL before it is acknowledged (-fsync policy),
//     shard state and the ledger are checkpointed every -checkpoint-every
//     closed windows, and startup restores the newest checkpoint and
//     replays the log tail while /readyz answers 503.
//   - The reputation ledger (on by default, -reputation=false disables
//     it) folds every completed window into per-participant trust scores
//     and tags, never drops, reports from quarantined or probation
//     participants.
//   - Reports without a routable identity (empty fleet, negative
//     participant) are refused at the ingest door and counted.
//
// All diagnostics are structured logs (log/slog) on stdout; -log-format
// selects text or json and -log-level the floor. With -debug-addr set a
// second listener serves net/http/pprof and build info, kept off the
// public sidecar so profiling is never exposed by accident.
//
// Usage:
//
//	itscs-serve [-ingest 127.0.0.1:7070] [-http 127.0.0.1:8080]
//	            [-participants 158] [-window 240] [-hop 60] [-tau 30s]
//	            [-workers 2] [-queue 16] [-max-fleets 64]
//	            [-idle-timeout 2m]
//	            [-data-dir /var/lib/itscs] [-fsync always|interval|never]
//	            [-fsync-interval 100ms] [-checkpoint-every 4]
//	            [-log-format text|json] [-log-level info]
//	            [-slow-window 30s] [-trace-depth 64]
//	            [-debug-addr 127.0.0.1:6060]
//	            [-reputation] [-rep-decay 0.9] [-rep-suspect-below 0.70]
//	            [-rep-quarantine-below 0.45] [-rep-probation-above 0.55]
//	            [-rep-readmit-above 0.75] [-rep-min-weight 3]
//
// The HTTP endpoints are listed on node.Node.Handler. Debug endpoints
// (only with -debug-addr):
//
//	GET /debug/pprof/...  CPU, heap, goroutine, block, mutex profiles
//	GET /debug/buildinfo  module, VCS revision, Go version, uptime
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"itscs/internal/mcs"
	"itscs/internal/node"
	"itscs/internal/obs"
	"itscs/internal/pipeline"
	"itscs/internal/reputation"
	"itscs/internal/wal"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "itscs-serve:", err)
		os.Exit(1)
	}
}

// run parses flags and serves until a signal or a listener failure. The
// stop channel substitutes for signals in tests; nil means OS signals.
func run(args []string, out io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("itscs-serve", flag.ContinueOnError)
	ingestAddr := fs.String("ingest", "127.0.0.1:7070", "TCP address for participant report ingest")
	httpAddr := fs.String("http", "127.0.0.1:8080", "HTTP address for health, metrics and results")
	debugAddr := fs.String("debug-addr", "", "HTTP address for pprof and build info (empty = disabled)")
	participants := fs.Int("participants", 158, "participants per fleet (matrix rows)")
	window := fs.Int("window", 240, "detection window width in slots")
	hop := fs.Int("hop", 60, "window stride in slots")
	tau := fs.Duration("tau", 30*time.Second, "slot duration")
	workers := fs.Int("workers", 2, "detection worker pool size")
	queue := fs.Int("queue", 16, "dispatch queue depth (drop-oldest beyond)")
	maxFleets := fs.Int("max-fleets", 64, "maximum live fleet shards")
	idle := fs.Duration("idle-timeout", mcs.DefaultIdleTimeout, "ingest connection idle limit (0 disables)")
	dataDir := fs.String("data-dir", "", "durability directory for the WAL and checkpoints (empty = in-memory only)")
	fsyncPolicy := fs.String("fsync", "always", "WAL fsync policy: always, interval or never")
	fsyncInterval := fs.Duration("fsync-interval", 100*time.Millisecond, "flush cadence under -fsync interval")
	checkpointEvery := fs.Int("checkpoint-every", node.DefaultCheckpointEvery, "checkpoint shard state every N closed windows")
	logFormat := fs.String("log-format", obs.LogText, "log output format: text or json")
	logLevel := fs.String("log-level", "info", "log level floor: debug, info, warn or error")
	slowWindow := fs.Duration("slow-window", 30*time.Second, "window wall-clock above which processing logs at warn")
	traceDepth := fs.Int("trace-depth", 64, "per-fleet trace spans retained for /trace (0 = default, negative disables)")
	repDefaults := reputation.DefaultConfig()
	repEnabled := fs.Bool("reputation", true, "maintain the participant trust ledger and quarantine state machine")
	repDecay := fs.Float64("rep-decay", repDefaults.Decay, "per-window decay of the trust evidence masses, in (0,1)")
	repSuspect := fs.Float64("rep-suspect-below", repDefaults.SuspectBelow, "trust lower bound below which a trusted participant turns suspect")
	repQuarantine := fs.Float64("rep-quarantine-below", repDefaults.QuarantineBelow, "trust lower bound below which a suspect (or probation) participant is quarantined")
	repProbation := fs.Float64("rep-probation-above", repDefaults.ProbationAbove, "trust lower bound at which a quarantined participant enters probation")
	repReadmit := fs.Float64("rep-readmit-above", repDefaults.ReadmitAbove, "trust lower bound at which a suspect or probation participant is readmitted as trusted")
	repMinWeight := fs.Float64("rep-min-weight", repDefaults.MinWeight, "minimum decayed evidence mass before any state transition fires")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tau <= 0 {
		return fmt.Errorf("slot duration must be positive, got %v", *tau)
	}
	if *checkpointEvery < 1 {
		return fmt.Errorf("checkpoint cadence must be >= 1 window, got %d", *checkpointEvery)
	}
	logger, err := obs.NewLogger(out, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	// Startup banner: who this binary is and how it will persist, first
	// line in the log whatever happens next. -log-format selects whether it
	// renders as text or JSON, like every other record.
	banner := make([]any, 0, 12)
	for _, a := range obs.BuildInfoAttrs() {
		banner = append(banner, a)
	}
	if *dataDir != "" {
		banner = append(banner, "data_dir", *dataDir, "fsync", *fsyncPolicy,
			"fsync_interval", fsyncInterval.String(), "checkpoint_every", *checkpointEvery)
	} else {
		banner = append(banner, "data_dir", "(in-memory)")
	}
	logger.Info("itscs-serve starting", banner...)

	cfg := node.Config{
		Engine:          pipeline.DefaultConfig(),
		IngestAddr:      *ingestAddr,
		HTTPAddr:        *httpAddr,
		IdleTimeout:     *idle,
		DataDir:         *dataDir,
		CheckpointEvery: *checkpointEvery,
		Log:             logger,
		SlowWindow:      *slowWindow,
	}
	cfg.Engine.Participants = *participants
	cfg.Engine.WindowSlots = *window
	cfg.Engine.HopSlots = *hop
	cfg.Engine.Workers = *workers
	cfg.Engine.QueueDepth = *queue
	cfg.Engine.MaxFleets = *maxFleets
	cfg.Engine.TraceDepth = *traceDepth
	cfg.Engine.Core.Detect.Tau = *tau
	cfg.Engine.Core.Reconstruct.Tau = *tau
	if *dataDir != "" {
		policy, err := wal.ParseSyncPolicy(*fsyncPolicy)
		if err != nil {
			return err
		}
		cfg.WAL = wal.DefaultOptions()
		cfg.WAL.Sync = policy
		cfg.WAL.SyncEvery = *fsyncInterval
	}
	if *repEnabled {
		rc := repDefaults
		rc.Decay = *repDecay
		rc.SuspectBelow = *repSuspect
		rc.QuarantineBelow = *repQuarantine
		rc.ProbationAbove = *repProbation
		rc.ReadmitAbove = *repReadmit
		rc.MinWeight = *repMinWeight
		cfg.Reputation = &rc
	}

	n, err := node.New(cfg)
	if err != nil {
		return err
	}
	var debug *http.Server
	debugFatal := make(chan error, 1)
	attrs := []any{"ingest", n.IngestAddr().String(), "http", n.HTTPAddr().String()}
	if *debugAddr != "" {
		var ln net.Listener
		if debug, ln, err = listenDebug(*debugAddr, time.Now()); err != nil {
			_ = n.Kill()
			return err
		}
		attrs = append(attrs, "debug", ln.Addr().String())
		go func() {
			if err := debug.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				debugFatal <- fmt.Errorf("debug http: %w", err)
			}
		}()
	}
	shutdown := func() error {
		err := n.Close()
		if debug != nil {
			if derr := debug.Close(); err == nil {
				err = derr
			}
		}
		return err
	}
	n.Serve(n.Handler())
	logger.Info("serving", attrs...)

	var sig chan os.Signal
	if stop == nil {
		sig = make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
	}
	select {
	case s := <-sig:
		logger.Info("draining", "signal", s.String())
	case <-stop:
	case err := <-n.Fatal():
		_ = shutdown()
		return err
	case err := <-debugFatal:
		_ = shutdown()
		return err
	}
	return shutdown()
}

// listenDebug binds the -debug-addr listener and returns a server for it
// with pprof and build info, never mounted on the public sidecar. pprof's
// CPU profile and trace handlers stream for their whole -seconds argument,
// so the server gets the header timeout but no idle cap beyond the
// generous default.
func listenDebug(addr string, started time.Time) (*http.Server, net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("debug listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/buildinfo", func(w http.ResponseWriter, r *http.Request) {
		obs.WriteJSON(w, http.StatusOK, obs.BuildInfo(time.Since(started)))
	})
	return obs.NewHTTPServer(mux), ln, nil
}
