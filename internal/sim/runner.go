package sim

import (
	"errors"
	"fmt"
	"time"

	"itscs/internal/corrupt"
	"itscs/internal/fault"
	"itscs/internal/mcs"
	"itscs/internal/node"
	"itscs/internal/pipeline"
	"itscs/internal/reputation"
	"itscs/internal/wal"
)

// runner owns the stormy half of a scenario: one engine "life" at a time,
// crashed and recovered on schedule and on injected WAL failures. All fault
// decisions flow through the single run goroutine, which is what keeps the
// injector's operation order — and so the whole storm — deterministic.
type runner struct {
	sc      Scenario
	dir     string
	reports []mcs.Report
	truth   *corrupt.Result

	in     *fault.Injector
	fsys   fault.FS
	walOpt wal.Options

	log     *wal.Log
	engine  *pipeline.Engine
	ledger  *reputation.Ledger // this life's trust ledger (nil unless sc.Reputation)
	results <-chan *pipeline.WindowResult
	cancel  func()

	recovered map[int]WindowOutcome
	attempts  uint64 // ingest+replay calls this life
	lastCkpt  uint64 // WindowsClosed at the last checkpoint, this life

	acked    uint64 // cumulative successful WAL appends (ack semantics)
	lives    int
	crashes  int
	ckptErrs int

	finalEngine      pipeline.Stats
	finalWAL         wal.Stats
	finalLedger      []byte // the last life's serialized ledger
	finalLedgerStats *reputation.LedgerStats

	violations []string
}

// run drives the whole storm: open a life, stream with retries, crash on
// schedule and on injected append failures, and close gracefully.
func (r *runner) run() error {
	if err := r.openLife(); err != nil {
		return err
	}
	crashAt := map[int]bool{}
	for _, i := range r.sc.CrashAt {
		if i >= 0 && i < len(r.reports) {
			crashAt[i] = true
		}
	}
	for i, rep := range r.reports {
		if crashAt[i] {
			if err := r.crash(); err != nil {
				return err
			}
		}
		for {
			r.attempts++
			err := r.engine.Ingest(rep)
			if err == nil || errors.Is(err, pipeline.ErrLateReport) || errors.Is(err, mcs.ErrDuplicateReport) {
				// Late and duplicate rejections happen after the WAL append,
				// so all three are acknowledgements: the report is durable
				// (or already reflected in the stream).
				r.acked++
				break
			}
			if errors.Is(err, fault.ErrInjected) {
				// The log refused the write. A production daemon dies on a
				// failing WAL disk; the participant retries after recovery.
				if err := r.crash(); err != nil {
					return err
				}
				continue
			}
			return fmt.Errorf("ingest report %d: %w", i, err)
		}
		if err := r.maybeCheckpoint(); err != nil {
			return err
		}
	}
	r.engine.Close()
	if err := r.drainClosed(); err != nil {
		return err
	}
	r.checkLife("final close")
	r.finalEngine = r.engine.Stats()
	if r.ledger != nil {
		blob, err := r.ledger.MarshalBinary()
		if err != nil {
			return fmt.Errorf("marshal final ledger: %w", err)
		}
		r.finalLedger = blob
		st := r.ledger.Stats()
		r.finalLedgerStats = &st
	}
	if err := r.log.Close(); err != nil && !errors.Is(err, fault.ErrInjected) {
		return fmt.Errorf("close wal: %w", err)
	}
	r.finalWAL = r.log.Stats()
	return nil
}

// openLife opens (or reopens) the log, rebuilds the engine from the newest
// checkpoint plus a log-tail replay (node.Recover, the daemon's startup
// sequence), and checks the no-acked-loss invariant. Injected faults
// during the reopen are the storm continuing through the reboot; the
// machine just boots again.
func (r *runner) openLife() error {
	var log *wal.Log
	var err error
	for attempt := 0; ; attempt++ {
		log, err = wal.Open(r.dir, r.walOpt)
		if err == nil {
			break
		}
		if !errors.Is(err, fault.ErrInjected) || attempt >= 100 {
			return fmt.Errorf("reopen wal (life %d): %w", r.lives+1, err)
		}
	}
	r.lives++
	if got := log.AppendedIndex(); got < r.acked {
		r.violations = append(r.violations, fmt.Sprintf(
			"life %d: acked-report loss: log holds %d records, %d were acked", r.lives, got, r.acked))
	}
	cfg := engineConfig(r.sc, log)
	var ledger *reputation.Ledger
	if r.sc.Reputation {
		// A crash kills the in-memory ledger with the process; each life
		// builds a fresh one and restores it from the checkpoint blob, just
		// like the daemon.
		if ledger, err = reputation.New(reputation.DefaultConfig()); err != nil {
			log.Close()
			return err
		}
		cfg.Gate = ledger
		cfg.OnResult = ledger.Fold
	}
	engine, err := pipeline.New(cfg)
	if err != nil {
		log.Close()
		return err
	}
	// The daemon's own recovery sequence, under the storm's filesystem.
	// Duplicate and late replay rejections are expected: records below the
	// checkpoint's horizon replay as no-ops.
	info, err := node.Recover(r.fsys, r.dir, log, engine, ledger)
	if err != nil {
		engine.Abort()
		log.Close()
		return fmt.Errorf("recover (life %d): %w", r.lives, err)
	}
	r.attempts += info.ReplayedRecords
	r.log, r.engine, r.ledger = log, engine, ledger
	// Results are read when the life ends, so one life may publish at
	// most 256 windows, as the golden run may.
	r.results, r.cancel = engine.Subscribe(256)
	r.lastCkpt = engine.Stats().WindowsClosed
	return nil
}

// crash kills the current life the way SIGKILL would — no flush, queued
// windows discarded — and boots the next one from disk.
func (r *runner) crash() error {
	r.crashes++
	r.engine.Abort()
	if err := r.drainClosed(); err != nil {
		return err
	}
	r.checkLife(fmt.Sprintf("crash %d", r.crashes))
	_ = r.log.Close() // a failing final fsync is part of the crash
	return r.openLife()
}

// maybeCheckpoint takes the daemon's checkpoint step (node.Checkpoint,
// which drains the engine before it snapshots) once enough windows have
// closed since the last success. Like the daemon, it absorbs an injected
// persistence failure, counting it, and tries again after the next report.
func (r *runner) maybeCheckpoint() error {
	closed := r.engine.Stats().WindowsClosed
	if closed-r.lastCkpt < r.sc.CheckpointEvery {
		return nil
	}
	switch err := node.Checkpoint(r.fsys, r.dir, r.log, r.engine, r.ledger); {
	case err == nil:
		r.lastCkpt = closed
	case errors.Is(err, fault.ErrInjected):
		r.ckptErrs++
	default:
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// drainClosed collects every result still buffered after the engine has
// shut down and its subscription channel closed.
func (r *runner) drainClosed() error {
	deadline := time.After(r.sc.Timeout)
	for {
		select {
		case res, ok := <-r.results:
			if !ok {
				return nil
			}
			if err := r.take(res); err != nil {
				return err
			}
		case <-deadline:
			return errors.New("timed out draining results")
		}
	}
}

// take scores one window and records it. A window re-processed after a
// crash overwrites its first outcome; determinism makes them identical,
// and VerifyWindows compares the survivor against the golden run.
func (r *runner) take(res *pipeline.WindowResult) error {
	out, err := Outcome(res, r.truth)
	if err != nil {
		return err
	}
	r.recovered[out.Seq] = out
	return nil
}

// checkLife asserts the metrics-conservation invariants on the life that
// just ended: every ingest attempt landed in exactly one of
// ingested/rejected, every closed window in exactly one terminal state, and
// the trust ledger skipped no fold.
func (r *runner) checkLife(stage string) {
	st := r.engine.Stats()
	if st.Ingested+st.Rejected != r.attempts {
		r.violations = append(r.violations, fmt.Sprintf(
			"%s (life %d): ingested %d + rejected %d != %d attempts",
			stage, r.lives, st.Ingested, st.Rejected, r.attempts))
	}
	if st.WindowsClosed != st.WindowsEmpty+st.WindowsDropped+st.WindowsProcessed+st.WindowsFailed {
		r.violations = append(r.violations, fmt.Sprintf(
			"%s (life %d): windows closed %d != empty %d + dropped %d + processed %d + failed %d",
			stage, r.lives, st.WindowsClosed, st.WindowsEmpty, st.WindowsDropped,
			st.WindowsProcessed, st.WindowsFailed))
	}
	if r.ledger != nil {
		// Checkpoints are drained, and no report is ingested between the
		// snapshot and the ledger blob (the run goroutine takes both), so
		// a restored ledger holds no fold beyond its shards: a skipped
		// fold here is evidence lost.
		if n := r.ledger.Stats().Skipped; n != 0 {
			r.violations = append(r.violations, fmt.Sprintf(
				"%s (life %d): reputation ledger skipped %d folds", stage, r.lives, n))
		}
	}
	if st.ReportsStamped+st.ReportsUnstamped != st.Ingested {
		r.violations = append(r.violations, fmt.Sprintf(
			"%s (life %d): stamped %d + unstamped %d != ingested %d — freshness partition broken (replay re-stamp?)",
			stage, r.lives, st.ReportsStamped, st.ReportsUnstamped, st.Ingested))
	}
	r.attempts = 0
}
