// Package clustertest runs in-process itscs-serve backends for cluster
// tests. Each Backend is a thin adapter over node.Node, the composition
// the daemon itself runs — identity-gated and stamping ingest door, HTTP
// surface (Prometheus /metrics included), reputation ledger, WAL,
// two-phase startup recovery and automatic checkpoints every
// node.DefaultCheckpointEvery closed windows — so router and chaos tests
// exercise the daemon's behaviour without forking binaries. Tests can kill
// a backend abruptly or restart it on the same addresses, and can hold its
// /readyz at 503 with a test-only override mounted in front of the node's
// handler.
package clustertest

import (
	"net/http"
	"sync/atomic"

	"itscs/internal/cluster"
	"itscs/internal/mcs"
	"itscs/internal/node"
	"itscs/internal/obs"
	"itscs/internal/pipeline"
	"itscs/internal/reputation"
	"itscs/internal/wal"
)

// Options shapes one backend.
type Options struct {
	// Config is the pipeline engine configuration (required).
	Config pipeline.Config
	// IngestAddr and HTTPAddr default to 127.0.0.1:0; restarts pass the
	// previously bound addresses to come back where the router expects.
	IngestAddr string
	HTTPAddr   string
	// StartUnready leaves /readyz at 503 until SetReady(true), modelling a
	// backend still in startup recovery.
	StartUnready bool
	// Reputation, when non-nil, wires a trust ledger into the engine as the
	// admission gate and window-fold observer, exposed under /reputation.
	Reputation *reputation.Config
	// DataDir, when non-empty, makes the backend durable: acked reports are
	// WAL-framed, state is checkpointed automatically and by Checkpoint and
	// Close, and Start recovers it.
	DataDir string
	// WAL overrides the log options when durable; nil uses DefaultOptions
	// with SyncAlways, so a Kill loses nothing that was acked.
	WAL *wal.Options
}

// Backend is one in-process itscs-serve node.
type Backend struct {
	*node.Node
	unready atomic.Bool
}

// Start boots a backend and returns once startup recovery has finished
// and ingest accepts reports.
func Start(opt Options) (*Backend, error) {
	cfg := node.Config{
		Engine:          opt.Config,
		IngestAddr:      opt.IngestAddr,
		HTTPAddr:        opt.HTTPAddr,
		IdleTimeout:     mcs.DefaultIdleTimeout,
		Reputation:      opt.Reputation,
		DataDir:         opt.DataDir,
		CheckpointEvery: node.DefaultCheckpointEvery,
	}
	if cfg.IngestAddr == "" {
		cfg.IngestAddr = "127.0.0.1:0"
	}
	if cfg.HTTPAddr == "" {
		cfg.HTTPAddr = "127.0.0.1:0"
	}
	if opt.WAL != nil {
		cfg.WAL = *opt.WAL
	} else {
		cfg.WAL = wal.DefaultOptions()
		cfg.WAL.Sync = wal.SyncAlways
	}
	n, err := node.New(cfg)
	if err != nil {
		return nil, err
	}
	b := &Backend{Node: n}
	b.unready.Store(opt.StartUnready)
	n.Serve(b.readyOverride(n.Handler()))
	if err := n.WaitReady(); err != nil {
		_ = n.Kill()
		return nil, err
	}
	return b, nil
}

// readyOverride answers /readyz with 503 while the backend is held
// unready and passes everything else to the node.
func (b *Backend) readyOverride(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" && b.unready.Load() {
			obs.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "recovering"})
			return
		}
		next.ServeHTTP(w, r)
	})
}

// SetReady moves /readyz between the node's own answer and 503.
func (b *Backend) SetReady(ready bool) { b.unready.Store(!ready) }

// IngestAddr and HTTPAddr return the bound listener addresses.
func (b *Backend) IngestAddr() string { return b.Node.IngestAddr().String() }
func (b *Backend) HTTPAddr() string   { return b.Node.HTTPAddr().String() }

// Spec describes the backend the way the router's -backends flag would.
func (b *Backend) Spec() cluster.Backend {
	return cluster.Backend{Name: b.IngestAddr(), Ingest: b.IngestAddr(), HTTP: b.HTTPAddr()}
}
