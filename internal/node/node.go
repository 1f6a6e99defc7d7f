// Package node composes one I(TS,CS) backend: the streaming pipeline
// engine, optionally writing ahead to a WAL and checkpointing every few
// closed windows, a participant reputation ledger as its admission gate and
// window-fold observer, the mcs TCP ingest door behind an identity check,
// and the HTTP read surface (/healthz /readyz /metrics /status /results
// /trace /reputation).
//
// cmd/itscs-serve is a flag parser around one Node, and the in-process
// cluster test backends (internal/cluster/clustertest) are thin adapters
// over one, so the router and chaos tests run against the daemon's own
// composition. Recover and Checkpoint are exported as functions too: the
// simulation harness drives the same recovery sequence under its
// fault-injecting filesystem.
package node

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"itscs/internal/fault"
	"itscs/internal/mcs"
	"itscs/internal/obs"
	"itscs/internal/pipeline"
	"itscs/internal/reputation"
	"itscs/internal/wal"
)

// DefaultCheckpointEvery is the daemon's default checkpoint cadence in
// closed windows.
const DefaultCheckpointEvery = 4

// Config shapes one backend.
type Config struct {
	// Engine is the pipeline configuration. New fills in Gate and OnResult
	// (with a ledger), Log and OnWindowClose (when durable), Obs (when nil)
	// and Clock (when nil).
	Engine pipeline.Config
	// IngestAddr and HTTPAddr are the listen addresses, e.g. "127.0.0.1:0".
	IngestAddr string
	HTTPAddr   string
	// IdleTimeout is the ingest connection idle limit; 0 disables it.
	IdleTimeout time.Duration
	// Reputation, when non-nil, wires a trust ledger into the engine as the
	// admission gate and window-fold observer, exposed under /reputation.
	Reputation *reputation.Config
	// DataDir, when non-empty, makes the node durable: every admitted
	// report is written ahead to a WAL there (with the WAL options), shard
	// state plus the ledger is checkpointed every CheckpointEvery closed
	// windows, and startup recovers both.
	DataDir         string
	WAL             wal.Options
	CheckpointEvery int
	// Log receives the node's structured diagnostics; nil silences it.
	Log *slog.Logger
	// SlowWindow is the processing time above which a window logs at warn;
	// 0 never escalates.
	SlowWindow time.Duration
	// StartupGate, when non-nil, is a test seam: the startup goroutine
	// waits on it before running recovery, so tests can observe the
	// not-ready state deterministically.
	StartupGate <-chan struct{}
}

// Node is one backend. Startup is two-phase: Serve makes the HTTP surface
// answer at once (so probers and operators can watch /readyz during a long
// recovery), while the ingest accept loop and the checkpointer start only
// after the startup goroutine has restored the newest checkpoint and
// replayed the log tail — Restore requires an engine that has ingested
// nothing, so no report may arrive before recovery finishes.
type Node struct {
	engine *pipeline.Engine
	ledger *reputation.Ledger // nil without Config.Reputation
	log    *slog.Logger

	ingest     *mcs.Server
	ingestAddr net.Addr
	http       *http.Server
	httpLn     net.Listener
	handler    http.Handler

	runtime     *obs.Runtime
	fatal       chan error
	startupGate <-chan struct{}

	// invalidIdentity counts reports the ingest door refused for an empty
	// fleet or negative participant id — before they could reach the
	// engine as unroutable, unattributable rows.
	invalidIdentity atomic.Uint64

	ready       atomic.Bool   // flips once, after recovery succeeds
	startupDone chan struct{} // closed when the startup goroutine exits
	startErr    error         // recovery failure; read after startupDone
	recovery    atomic.Pointer[Recovery]

	dur      *durable // nil for an in-memory node
	stopOnce sync.Once
	stopErr  error
}

// durable is a node's persistent state and its checkpointer.
type durable struct {
	dir   string
	fs    fault.FS
	sync  wal.SyncPolicy
	log   *wal.Log
	every uint64 // checkpoint every N closed windows

	// closed is the largest cumulative closed-window count the engine's
	// OnWindowClose hook has reported: the checkpoint cadence's only
	// source. kick is signaled by the same hook; the checkpointer
	// goroutine waits on it until stop closes.
	closed atomic.Uint64
	kick   chan struct{}
	stop   chan struct{}
	wg     sync.WaitGroup

	// ckMu serializes whole checkpoints (the checkpointer, Close and
	// Node.Checkpoint may race); mu guards the counters below.
	ckMu       sync.Mutex
	mu         sync.Mutex
	lastCkpt   uint64 // windowsClosed at the last checkpoint
	lastCkptAt time.Time
	ckpts      uint64
	ckptErrs   uint64
	lastErr    string
}

// New builds the node and binds both listeners; nothing is served until
// Serve. On error everything acquired so far is released.
func New(cfg Config) (*Node, error) {
	logger := cfg.Log
	if logger == nil {
		logger = obs.Discard()
	}
	ecfg := cfg.Engine
	if ecfg.Obs == nil {
		ecfg.Obs = &obs.LogObserver{Log: logger, SlowWindow: cfg.SlowWindow}
	}
	if ecfg.Clock == nil {
		ecfg.Clock = fault.RealClock()
	}
	n := &Node{
		log:         logger,
		runtime:     obs.NewRuntime(),
		fatal:       make(chan error, 3),
		startupGate: cfg.StartupGate,
		startupDone: make(chan struct{}),
	}
	if cfg.Reputation != nil {
		ledger, err := reputation.New(*cfg.Reputation)
		if err != nil {
			return nil, err
		}
		n.ledger = ledger
		ecfg.Gate = ledger
		ecfg.OnResult = ledger.Fold
	}
	if cfg.DataDir != "" {
		if cfg.CheckpointEvery < 1 {
			return nil, fmt.Errorf("checkpoint cadence must be >= 1 window, got %d", cfg.CheckpointEvery)
		}
		wopt := cfg.WAL
		wopt.Logger = logger
		log, err := wal.Open(cfg.DataDir, wopt)
		if err != nil {
			return nil, err
		}
		fsys := wopt.FS
		if fsys == nil {
			fsys = fault.OS()
		}
		d := &durable{
			dir: cfg.DataDir, fs: fsys, sync: wopt.Sync, log: log,
			every: uint64(cfg.CheckpointEvery),
			kick:  make(chan struct{}, 1), stop: make(chan struct{}),
		}
		n.dur = d
		ecfg.Log = log
		ecfg.OnWindowClose = func(total uint64) {
			// Concurrent ingests may report out of order; keep the largest.
			for {
				cur := d.closed.Load()
				if total <= cur || d.closed.CompareAndSwap(cur, total) {
					break
				}
			}
			select {
			case d.kick <- struct{}{}:
			default:
			}
		}
	}
	engine, err := pipeline.New(ecfg)
	if err != nil {
		if n.dur != nil {
			_ = n.dur.log.Close()
		}
		return nil, err
	}
	n.engine = engine
	// The TCP door fronts the engine with the identity check: a report with
	// no routable identity is refused (and counted) before it can occupy a
	// default-fleet shard no cluster router would ever query. It is also
	// the freshness door: every admitted report gets its ingest stamp here,
	// unless a router upstream already stamped it.
	n.ingest = mcs.NewServer(&identityGate{next: engine, invalid: &n.invalidIdentity, clock: ecfg.Clock})
	n.ingest.IdleTimeout = cfg.IdleTimeout
	if n.ingestAddr, err = n.ingest.Listen(cfg.IngestAddr); err != nil {
		n.teardown()
		return nil, err
	}
	if n.httpLn, err = net.Listen("tcp", cfg.HTTPAddr); err != nil {
		n.teardown()
		return nil, fmt.Errorf("http listen: %w", err)
	}
	n.handler = n.mux()
	return n, nil
}

// identityGate fronts the engine on the TCP ingest path: mcs.Report
// identity fields are validated before the engine (or the WAL) sees the
// report, so the refusal is counted and acked instead of admitting an
// unroutable row. The door hands it each read's reports in one batch, and
// the reports that pass go to the engine in one call.
type identityGate struct {
	next    *pipeline.Engine
	invalid *atomic.Uint64
	clock   fault.Clock
}

// Ingest makes the gate an mcs.Ingestor; the door calls IngestBatch.
func (g *identityGate) Ingest(r mcs.Report) error {
	rs, errs := [1]mcs.Report{r}, [1]error{}
	g.IngestBatch(rs[:], errs[:])
	return errs[0]
}

func (g *identityGate) IngestBatch(rs []mcs.Report, errs []error) {
	now := g.clock.Now()
	refused := 0
	for i := range rs {
		if errs[i] = rs[i].CheckIdentity(); errs[i] != nil {
			g.invalid.Add(1)
			refused++
			continue
		}
		// Stamp at the door. StampIngest no-ops on a report a router
		// already stamped, so freshness always measures from first contact.
		mcs.StampIngest(&rs[i], now, mcs.OriginDirect)
	}
	if refused == 0 {
		g.next.IngestBatch(rs, errs)
		return
	}
	passed := make([]mcs.Report, 0, len(rs)-refused)
	for i := range rs {
		if errs[i] == nil {
			passed = append(passed, rs[i])
		}
	}
	verdicts := make([]error, len(passed))
	g.next.IngestBatch(passed, verdicts)
	for i := range rs {
		if errs[i] == nil {
			errs[i], verdicts = verdicts[0], verdicts[1:]
		}
	}
}

// teardown releases everything New acquired before a later step failed,
// in reverse order of acquisition.
func (n *Node) teardown() {
	if n.httpLn != nil {
		_ = n.httpLn.Close()
	}
	if n.ingestAddr != nil {
		_ = n.ingest.Close()
	}
	n.engine.Close()
	if n.dur != nil {
		_ = n.dur.log.Close()
	}
}

// Serve starts answering HTTP with h at once — n.Handler(), or a wrapper
// around it — and launches the startup goroutine, which recovers durable
// state and only then opens the ingest accept loop and the checkpointer.
// A recovery or listener failure surfaces on Fatal.
func (n *Node) Serve(h http.Handler) {
	n.http = obs.NewHTTPServer(h)
	go func() {
		if err := n.http.Serve(n.httpLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
			n.fatal <- fmt.Errorf("http: %w", err)
		}
	}()
	go n.startup()
}

// startup runs the recovery phase and flips the node ready.
func (n *Node) startup() {
	defer close(n.startupDone)
	if n.startupGate != nil {
		<-n.startupGate
	}
	if d := n.dur; d != nil {
		info, err := Recover(d.fs, d.dir, d.log, n.engine, n.ledger)
		if err != nil {
			n.startErr = fmt.Errorf("recovery: %w", err)
			n.fatal <- n.startErr
			return
		}
		n.recovery.Store(info)
		if info.CheckpointsSkipped > 0 {
			n.log.Warn("skipped corrupt checkpoint(s) during recovery",
				"dir", d.dir, "skipped", info.CheckpointsSkipped)
		}
		n.log.Info("recovered durable state",
			"dir", d.dir,
			"fleets", info.Fleets,
			"replayed_records", info.ReplayedRecords,
			"log_records", info.LogRecords,
			"replay_rejected", info.ReplayRejected,
			"checkpoint_index", info.CheckpointIndex,
			"checkpoints_skipped_corrupt", info.CheckpointsSkipped,
			"duration_s", info.DurationS)
		d.wg.Add(1)
		go n.checkpointer()
	}
	n.ready.Store(true)
	go func() {
		if err := n.ingest.Serve(); err != nil {
			n.fatal <- fmt.Errorf("ingest: %w", err)
		}
	}()
}

// WaitReady blocks until startup has finished and returns its recovery
// error, if any.
func (n *Node) WaitReady() error {
	<-n.startupDone
	return n.startErr
}

// Fatal delivers listener and recovery failures after Serve.
func (n *Node) Fatal() <-chan error { return n.fatal }

// checkpointer writes a checkpoint every `every` closed windows.
func (n *Node) checkpointer() {
	d := n.dur
	defer d.wg.Done()
	for {
		select {
		case <-d.stop:
			return
		case <-d.kick:
		}
		closed := d.closed.Load()
		d.mu.Lock()
		due := closed >= d.lastCkpt+d.every
		d.mu.Unlock()
		if !due {
			continue
		}
		if err := n.Checkpoint(); err != nil {
			d.mu.Lock()
			errs := d.ckptErrs
			d.mu.Unlock()
			n.log.Error("checkpoint failed",
				"err", err, "windows_closed", closed, "consecutive_errors", errs)
		}
	}
}

// Checkpoint persists the engine's shard state plus the ledger, prunes old
// checkpoints and compacts the log behind the new one, and counts the
// outcome under /metrics. Only valid on a durable node.
func (n *Node) Checkpoint() error {
	d := n.dur
	if d == nil {
		return errors.New("node: not durable")
	}
	d.ckMu.Lock()
	defer d.ckMu.Unlock()
	closed := d.closed.Load()
	err := Checkpoint(d.fs, d.dir, d.log, n.engine, n.ledger)
	d.mu.Lock()
	defer d.mu.Unlock()
	if err != nil {
		d.ckptErrs++
		d.lastErr = err.Error()
		return err
	}
	d.lastCkpt = closed
	d.lastCkptAt = time.Now()
	d.ckpts++
	d.lastErr = ""
	return nil
}

// checkpointStats snapshots the checkpointer counters.
func (d *durable) checkpointStats() CheckpointStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := CheckpointStats{Written: d.ckpts, Errors: d.ckptErrs, LastError: d.lastErr}
	if !d.lastCkptAt.IsZero() {
		s.LastUnixMicro = d.lastCkptAt.UnixMicro()
	}
	return s
}

// Close shuts the node down gracefully. It waits for startup (recovery
// must not race the drain), stops the transport first so no report
// arrives after the engine stops, then drains the engine (every open
// partial window runs through detection), writes a final checkpoint so a
// clean restart replays nothing, and closes the log. Close and Kill are
// idempotent; only the first call acts.
func (n *Node) Close() error { return n.stop(true) }

// Kill shuts the node down abruptly — listeners torn down, engine aborted
// with queued windows discarded, no final checkpoint — the observable
// shape of a crashed process. The next start recovers from what is
// durable.
func (n *Node) Kill() error { return n.stop(false) }

func (n *Node) stop(graceful bool) error {
	n.stopOnce.Do(func() { n.stopErr = n.shutdown(graceful) })
	return n.stopErr
}

func (n *Node) shutdown(graceful bool) error {
	if n.http != nil { // Serve ran
		<-n.startupDone
	}
	err := n.ingest.Close()
	if n.http != nil {
		if herr := n.http.Close(); err == nil {
			err = herr
		}
	} else if lerr := n.httpLn.Close(); err == nil {
		err = lerr
	}
	if n.dur != nil {
		close(n.dur.stop)
		n.dur.wg.Wait()
	}
	if !graceful || !n.ready.Load() {
		// A failed startup may leave a half-restored engine: abort it like
		// a kill and leave the log alone, so the next start recovers from
		// what is durable, exactly as after a crash.
		n.engine.Abort()
	} else {
		n.engine.Close()
		if n.dur != nil {
			if ckErr := n.Checkpoint(); ckErr != nil {
				n.log.Error("final checkpoint failed", "err", ckErr)
				if err == nil {
					err = ckErr
				}
			}
		}
	}
	if n.dur != nil {
		if lerr := n.dur.log.Close(); err == nil {
			err = lerr
		}
	}
	return err
}

// Engine returns the node's pipeline engine.
func (n *Node) Engine() *pipeline.Engine { return n.engine }

// Ledger returns the node's trust ledger (nil without Config.Reputation).
func (n *Node) Ledger() *reputation.Ledger { return n.ledger }

// IngestAddr and HTTPAddr return the bound listener addresses.
func (n *Node) IngestAddr() net.Addr { return n.ingestAddr }
func (n *Node) HTTPAddr() net.Addr   { return n.httpLn.Addr() }

// Runtime returns the node's process self-metrics, whose start time is the
// one every uptime the node reports is measured from.
func (n *Node) Runtime() *obs.Runtime { return n.runtime }

// HTTPServer returns the server Serve started (nil before Serve).
func (n *Node) HTTPServer() *http.Server { return n.http }

// Recovery returns what startup restored, or nil while recovery is still
// running (or for an in-memory node).
func (n *Node) Recovery() *Recovery { return n.recovery.Load() }

// InvalidIdentity counts reports the ingest door refused for an empty
// fleet or a negative participant.
func (n *Node) InvalidIdentity() uint64 { return n.invalidIdentity.Load() }
