package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"itscs/internal/cluster"
	"itscs/internal/mcs"
	"itscs/internal/pipeline"
	"itscs/internal/reputation"
	"itscs/internal/wal"
)

// backendNames are the backends' fixed ring identities. Names derived from
// ephemeral ingest ports would move fleets between backends from run to
// run; these two place the 8 stream fleets 4/4 and the 24 ingest fleets
// 12/12, and every run asserts that split.
var backendNames = []string{"backend-0", "backend-c"}

// walOptions is the log configuration every backend uses: fsync on an
// interval. Under SyncAlways a prototype of the ingest workload gave
// 5.1k–10.5k reports/s from run to run on a 2-core development machine,
// too unsteady to compare two commits.
func walOptions() wal.Options {
	o := wal.DefaultOptions()
	o.Sync = wal.SyncInterval
	return o
}

// backendConfig shapes one backend.
type backendConfig struct {
	name   string
	engine pipeline.Config
	dir    string
	// checkpointEvery is the daemon's -checkpoint-every: closed windows
	// between checkpoints (0 never checkpoints).
	checkpointEvery uint64
	tr              *tracer
}

// backend is composed the way clustertest.Start composes one: a pipeline
// engine writing ahead to a WAL, with a reputation ledger as its admission
// gate and result observer, behind an mcs TCP door. Startup recovers the
// newest checkpoint and replays the log tail before the door opens.
type backend struct {
	name     string
	dir      string
	engine   *pipeline.Engine
	ledger   *reputation.Ledger
	log      *wal.Log
	door     *mcs.Server
	addr     string
	served   chan struct{}
	replayed uint64
	// replayTook is the Log.Replay time of startup recovery, callbacks
	// into the engine included.
	replayTook time.Duration

	closed atomic.Uint64 // windows closed so far, from OnWindowClose
	kick   chan struct{}
	stop   chan struct{}
	ckDone chan struct{}
	ckErr  error // first checkpoint failure; read after ckDone closes
}

func startBackend(c backendConfig) (*backend, error) {
	ledger, err := reputation.New(reputation.DefaultConfig())
	if err != nil {
		return nil, err
	}
	began := time.Now()
	log, err := wal.Open(c.dir, walOptions())
	if err != nil {
		return nil, err
	}
	c.tr.observe(tOpen, time.Since(began))
	b := &backend{
		name:   c.name,
		dir:    c.dir,
		ledger: ledger,
		log:    log,
		served: make(chan struct{}),
		kick:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		ckDone: make(chan struct{}),
	}
	cfg := c.engine
	cfg.Log, cfg.Gate, cfg.OnResult = log, ledger, ledger.Fold
	cfg.OnWindowClose = func(total uint64) {
		b.closed.Store(total)
		select {
		case b.kick <- struct{}{}:
		default:
		}
	}
	c.tr.instrument(&cfg, log, ledger)
	if b.engine, err = pipeline.New(cfg); err != nil {
		_ = log.Close()
		return nil, err
	}
	if err := b.recover(c.tr); err != nil {
		b.engine.Abort()
		_ = log.Close()
		return nil, err
	}
	b.door = mcs.NewServer(c.tr.ownerDoor(b.engine, &b.closed))
	addr, err := b.door.Listen("127.0.0.1:0")
	if err != nil {
		b.engine.Abort()
		_ = log.Close()
		return nil, err
	}
	b.addr = addr.String()
	go func() {
		defer close(b.served)
		_ = b.door.Serve()
	}()
	if c.checkpointEvery > 0 {
		go b.checkpointer(c.checkpointEvery, c.tr)
	} else {
		close(b.ckDone)
	}
	return b, nil
}

// recover restores the newest checkpoint into the engine and ledger and
// replays the log tail, as the daemon does at startup.
func (b *backend) recover(tr *tracer) error {
	began := time.Now()
	ck, _, err := wal.LatestCheckpoint(b.dir)
	tr.observe(tCkRead, time.Since(began))
	var from uint64
	switch {
	case err == nil:
		began = time.Now()
		if err := b.engine.Restore(ck); err != nil {
			return fmt.Errorf("restore checkpoint: %w", err)
		}
		tr.observe(tRestore, time.Since(began))
		began = time.Now()
		if err := b.ledger.Restore(ck.Reputation); err != nil {
			return fmt.Errorf("restore ledger: %w", err)
		}
		tr.observe(tLedgerRestore, time.Since(began))
		from = ck.LogIndex
	case errors.Is(err, wal.ErrNoCheckpoint):
		if err := b.ledger.Restore(nil); err != nil {
			return err
		}
	default:
		return err
	}
	var inEngine time.Duration
	began = time.Now()
	n, err := b.log.Replay(from, func(_ uint64, r mcs.Report) error {
		if tr == nil {
			_ = b.engine.Replay(r) // rejects (duplicates of checkpointed cells) are expected
			return nil
		}
		t := time.Now()
		_ = b.engine.Replay(r)
		inEngine += time.Since(t)
		return nil
	})
	b.replayTook = time.Since(began)
	tr.observeReplay(b.replayTook, inEngine, n)
	b.replayed = n
	return err
}

// checkpointer writes a checkpoint every `every` closed windows, as the
// daemon's does.
func (b *backend) checkpointer(every uint64, tr *tracer) {
	defer close(b.ckDone)
	var last uint64
	for {
		select {
		case <-b.stop:
			return
		case <-b.kick:
		}
		closed := b.closed.Load()
		if closed < last+every {
			continue
		}
		if err := b.checkpoint(tr, true); err != nil {
			if b.ckErr == nil {
				b.ckErr = err
			}
			continue
		}
		last = closed
	}
}

// checkpoint snapshots the engine and ledger, persists them, prunes old
// checkpoints and, when compact is set, drops log segments behind the
// snapshot.
func (b *backend) checkpoint(tr *tracer, compact bool) error {
	began := time.Now()
	ck, err := b.engine.Checkpoint()
	if err != nil {
		return err
	}
	tr.observe(tCkEngine, time.Since(began))
	if ck.Reputation, err = b.ledger.MarshalBinary(); err != nil {
		return err
	}
	began = time.Now()
	path, err := wal.WriteCheckpoint(b.dir, ck)
	if err != nil {
		return err
	}
	tr.observe(tCkWrite, time.Since(began))
	if tr != nil {
		if fi, err := os.Stat(path); err == nil {
			tr.observeBytes(fi.Size())
		}
	}
	if _, err := wal.PruneCheckpoints(b.dir, 2); err != nil {
		return err
	}
	if !compact {
		return nil
	}
	began = time.Now()
	if _, err := b.log.Compact(ck.LogIndex); err != nil {
		return err
	}
	tr.observe(tCompact, time.Since(began))
	return nil
}

// kill stops the backend the way a crash would: door closed, queued
// windows discarded, no final checkpoint.
func (b *backend) kill() error {
	err := b.door.Close()
	<-b.served
	close(b.stop)
	<-b.ckDone
	b.engine.Abort()
	if lerr := b.log.Close(); err == nil {
		err = lerr
	}
	if err == nil {
		err = b.ckErr
	}
	return err
}

// router is composed the way cmd/itscs-router wires its data plane: a
// consistent-hash ring and a forwarder behind an mcs TCP door.
type router struct {
	fwd    *cluster.Forwarder
	door   *mcs.Server
	addr   string
	served chan struct{}
}

func startRouter(backends []*backend, clientQueue int, tr *tracer) (*router, error) {
	specs := make([]cluster.Backend, len(backends))
	for i, b := range backends {
		specs[i] = cluster.Backend{Name: b.name, Ingest: b.addr}
	}
	fwd := cluster.NewForwarder(specs, cluster.NewRing(0), cluster.ForwarderOptions{
		Client: mcs.ClientOptions{QueueDepth: clientQueue},
	})
	r := &router{fwd: fwd, door: mcs.NewServer(tr.routerDoor(fwd)), served: make(chan struct{})}
	addr, err := r.door.Listen("127.0.0.1:0")
	if err != nil {
		_ = fwd.Close()
		return nil, err
	}
	r.addr = addr.String()
	go func() {
		defer close(r.served)
		_ = r.door.Serve()
	}()
	return r, nil
}

func (r *router) close() error {
	err := r.door.Close()
	<-r.served
	if ferr := r.fwd.Close(); err == nil {
		err = ferr
	}
	return err
}

// testbed is one router in front of len(backendNames) backends.
type testbed struct {
	backends []*backend
	router   *router
	stopOnce sync.Once
	stopErr  error
}

// startTestbed boots the backends, then the router. clientQueue sizes the
// router's per-backend send queue (0 keeps the mcs default).
func startTestbed(cfg pipeline.Config, dir string, checkpointEvery uint64, clientQueue int, tr *tracer) (*testbed, error) {
	tb := &testbed{}
	for _, name := range backendNames {
		b, err := startBackend(backendConfig{
			name:            name,
			engine:          cfg,
			dir:             filepath.Join(dir, name),
			checkpointEvery: checkpointEvery,
			tr:              tr,
		})
		if err != nil {
			_ = tb.stop()
			return nil, fmt.Errorf("start %s: %w", name, err)
		}
		tb.backends = append(tb.backends, b)
	}
	r, err := startRouter(tb.backends, clientQueue, tr)
	if err != nil {
		_ = tb.stop()
		return nil, fmt.Errorf("start router: %w", err)
	}
	tb.router = r
	return tb, nil
}

// checkPlacement asserts that the ring splits the fleets evenly across
// the backends.
func (tb *testbed) checkPlacement(fleets []string) error {
	per := map[string]int{}
	for _, f := range fleets {
		owner, _ := tb.router.fwd.Owner(f)
		per[owner]++
	}
	for _, b := range tb.backends {
		if per[b.name] != len(fleets)/len(tb.backends) {
			return fmt.Errorf("ring placed %v of %d fleets, want an even split", per, len(fleets))
		}
	}
	return nil
}

// ingested sums the backends' applied-report counters.
func (tb *testbed) ingested() uint64 {
	var n uint64
	for _, b := range tb.backends {
		n += b.engine.Stats().Ingested
	}
	return n
}

func (tb *testbed) engineStats() []pipeline.Stats {
	st := make([]pipeline.Stats, len(tb.backends))
	for i, b := range tb.backends {
		st[i] = b.engine.Stats()
	}
	return st
}

// stop closes the router, then kills every backend. Later calls return
// the first call's error.
func (tb *testbed) stop() error {
	tb.stopOnce.Do(func() {
		if tb.router != nil {
			tb.stopErr = tb.router.close()
		}
		for _, b := range tb.backends {
			if err := b.kill(); tb.stopErr == nil {
				tb.stopErr = err
			}
		}
	})
	return tb.stopErr
}
