// Package pipeline turns the one-shot I(TS,CS) batch loop into a continuous
// streaming service: it sits between the mcs collection substrate and the
// core DETECT→CORRECT→CHECK engine, assembling per-fleet sliding windows
// from individual location reports and running detection on every window as
// it closes.
//
// Reports are routed by fleet ID into per-fleet ring buffers holding the
// four sensory matrices (X, Y, VX, VY) plus the existence mask. When a
// report's slot passes the open window's far edge the window [start,
// start+WindowSlots) is snapshotted, the buffer slides forward by HopSlots,
// and the snapshot is dispatched to its fleet's lane: a bounded queue with
// one worker. Each fleet is bound to one lane, so its windows run in seq
// order, each warm-starting CORRECT with the factorization of the window
// before it (consecutive windows overlap by WindowSlots−HopSlots columns,
// and even where the carried subspace has rotated the warm start still
// skips the O(n·t²) SVD init); different lanes run in parallel.
// Backpressure is drop-oldest: when a lane is full its stalest window is
// discarded and counted, so a slow detector degrades to coarser coverage
// instead of unbounded memory.
// Results fan out through a subscription API and are retained per fleet for
// polling; Stats exposes counters and per-phase latency histograms.
package pipeline

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"itscs/internal/core"
	"itscs/internal/csrecon"
	"itscs/internal/fault"
	"itscs/internal/mat"
	"itscs/internal/mcs"
	"itscs/internal/metrics"
	"itscs/internal/obs"
	"itscs/internal/wal"
)

// Errors reported by Ingest and the result accessors.
var (
	// ErrClosed is returned once the engine has been Closed.
	ErrClosed = errors.New("pipeline: engine closed")
	// ErrLateReport marks a report whose slot falls before its fleet's
	// current window start; the window it belonged to has already closed.
	ErrLateReport = errors.New("pipeline: late report")
	// ErrTooManyFleets is returned when a report names a fleet that would
	// exceed Config.MaxFleets.
	ErrTooManyFleets = errors.New("pipeline: too many fleets")
	// ErrUnknownFleet is returned by Latest, Trace and Flush for a fleet
	// that has never reported.
	ErrUnknownFleet = errors.New("pipeline: unknown fleet")
	// ErrNoResult is returned by Latest for a known fleet none of whose
	// windows has completed detection yet — distinct from ErrUnknownFleet so
	// callers (and the daemon's HTTP layer) can answer "not yet" instead of
	// "no such fleet".
	ErrNoResult = errors.New("pipeline: no completed window yet")
	// ErrNotRestorable is returned by Restore on an engine that has already
	// ingested reports or been closed, or for a checkpoint whose shape does
	// not match the configuration.
	ErrNotRestorable = errors.New("pipeline: engine not restorable")
)

// ReportLog is the durability hook: when Config.Log is set, every report
// that passes the engine's checks is appended (and per the log's policy
// fsynced) before it mutates a shard, so an acked upload survives a crash.
// An ingest call hands all of its reports to one AppendBatch. wal.Log
// implements it.
type ReportLog interface {
	// AppendBatch durably records the reports, in order, or none of them.
	AppendBatch([]mcs.Report) error
	// Sync forces everything appended so far to disk.
	Sync() error
	// AppendedIndex reports how many records have been committed; a
	// checkpoint captures it as its replay origin.
	AppendedIndex() uint64
}

// Admission is an AdmissionGate's verdict for one accepted report.
type Admission int

const (
	// AdmitClean is the default verdict: the submitter is in good standing
	// (or no gate is configured).
	AdmitClean Admission = iota
	// AdmitQuarantined tags a report from a quarantined participant. The
	// report is still ingested — its cells keep feeding detection, which is
	// the only path back to trust — but the tag count lets operators weigh
	// how much quarantined data a window saw.
	AdmitQuarantined
	// AdmitProbation tags a report from a participant on probation
	// (readmitted from quarantine but not yet back to trusted).
	AdmitProbation
)

// AdmissionGate classifies each accepted report by its submitter's current
// reputation standing. The gate tags, it never drops: rejecting a
// quarantined participant's uploads would freeze their trust score at its
// low-water mark with no evidence to recover on, and would silently starve
// the window of observations. Implementations must be safe for concurrent
// use and cheap — Admit runs on the ingest hot path inside the engine's
// ingestion gate. The reputation.Ledger is the production implementation.
type AdmissionGate interface {
	Admit(fleet string, participant int) Admission
}

// maxCatchUpCloses bounds how many windows a single report may close before
// the shard fast-forwards past the gap, so one far-future slot cannot stall
// its ingest goroutine snapshotting hundreds of (mostly empty) windows.
const maxCatchUpCloses = 8

// Config parameterizes the streaming engine.
type Config struct {
	// Participants is the fixed row count of every fleet's matrices.
	Participants int
	// WindowSlots is the width W of each detection window in slots.
	WindowSlots int
	// HopSlots is the stride H between consecutive windows, 0 < H ≤ W.
	// Consecutive windows overlap by W−H slots.
	HopSlots int
	// Workers is the number of detection lanes, each a queue with one
	// worker (default 2; the core loop already parallelizes internally
	// across row blocks). A fleet is bound to a lane, round-robin, when its
	// shard is first materialized, so its windows publish and fold in seq
	// order and each warm-starts from the one before it, at any count.
	Workers int
	// QueueDepth bounds the windows waiting between window close and the
	// workers (default 16), split evenly across the lanes, each of which
	// holds at least one. When a lane is full, its oldest queued window is
	// dropped and counted.
	QueueDepth int
	// MaxFleets bounds how many fleet shards may be materialized
	// (default 64); each shard holds six (W+H)×Participants rings.
	MaxFleets int
	// Log, when set, makes ingestion write-ahead: a report is appended to
	// the log before it mutates any shard, and an append failure rejects
	// the report (durability refused is ingestion refused).
	Log ReportLog
	// OnWindowClose, when set, is called after windows are cut from a
	// stream with the cumulative closed-window count. The daemon uses it to
	// pace checkpoints. It runs on the ingest goroutine inside the engine's
	// ingestion gate, so it must be cheap and must not call back into the
	// engine (signal a channel instead).
	OnWindowClose func(totalClosed uint64)
	// OnResult, when set, receives every completed WindowResult after the
	// fleet's warm state and latest result have been updated, outside all
	// engine locks and before the window is counted under
	// Stats.WindowsProcessed — so a drain that waits on that counter
	// observes every delivery. It runs on worker goroutines: it must be
	// cheap and must not call back into the engine. The reputation ledger
	// uses it to fold each window's verdicts into per-participant trust.
	OnResult func(*WindowResult)
	// Gate, when set, classifies each accepted report's submitter at ingest
	// time; the verdict only moves counters (see Admission — the gate tags,
	// it never refuses). Queried after all rejection checks, so tagged
	// counts partition Stats.Ingested exactly.
	Gate AdmissionGate
	// Obs, when set, receives window lifecycle events: a trace span for
	// every processed window, plus drop and failure notifications that
	// would otherwise only move counters. Callbacks run on engine
	// goroutines — they must be cheap and must not call back into the
	// engine. obs.LogObserver is the production implementation.
	Obs obs.Observer
	// TraceDepth bounds both per-fleet trace stores: the ring of recent
	// window spans served by Trace and the table of recent stamped
	// reports' traces served by Traces and FindTrace (default 64;
	// negative retains none).
	TraceDepth int
	// Clock supplies the timestamps behind queue-wait and run-duration
	// accounting (default the wall clock). The fault harness swaps in a
	// virtual clock so timing-sensitive tests need never sleep.
	Clock fault.Clock
	// Core configures the per-window DETECT→CORRECT→CHECK loop.
	Core core.Config
}

// DefaultConfig streams the paper's evaluation shape: 158 participants,
// 2-hour windows of 30-second slots (240), sliding by 30 minutes (60).
func DefaultConfig() Config {
	return Config{
		Participants: 158,
		WindowSlots:  240,
		HopSlots:     60,
		Workers:      2,
		QueueDepth:   16,
		MaxFleets:    64,
		Core:         core.DefaultConfig(),
	}
}

// clock returns the configured clock, defaulting to the wall clock so code
// paths reached without New's defaulting (shard-level tests) stay safe.
func (c Config) clock() fault.Clock {
	if c.Clock == nil {
		return fault.RealClock()
	}
	return c.Clock
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Participants <= 0:
		return fmt.Errorf("pipeline: participants must be positive, got %d", c.Participants)
	case c.WindowSlots <= 0:
		return fmt.Errorf("pipeline: window must be positive, got %d", c.WindowSlots)
	case c.HopSlots <= 0 || c.HopSlots > c.WindowSlots:
		return fmt.Errorf("pipeline: hop %d outside (0,%d]", c.HopSlots, c.WindowSlots)
	case c.Workers <= 0:
		return fmt.Errorf("pipeline: workers must be positive, got %d", c.Workers)
	case c.QueueDepth <= 0:
		return fmt.Errorf("pipeline: queue depth must be positive, got %d", c.QueueDepth)
	case c.MaxFleets <= 0:
		return fmt.Errorf("pipeline: max fleets must be positive, got %d", c.MaxFleets)
	}
	return c.Core.Validate()
}

// CellFlag locates one faulty cell in a window result, with Slot on the
// stream's absolute timeline.
type CellFlag struct {
	Participant int `json:"participant"`
	Slot        int `json:"slot"`
}

// WindowResult is the detection outcome for one closed window.
type WindowResult struct {
	// Fleet and Seq identify the window: Seq counts windows cut from this
	// fleet's stream (including skipped ones), so gaps in the sequence
	// observed by a subscriber correspond to dropped or empty windows.
	Fleet string `json:"fleet"`
	Seq   int    `json:"seq"`
	// StartSlot (inclusive) and EndSlot (exclusive) bound the window on
	// the absolute slot timeline.
	StartSlot int `json:"start_slot"`
	EndSlot   int `json:"end_slot"`
	// Observed counts reported cells in the window; Flagged counts cells
	// the framework judged faulty.
	Observed int `json:"observed"`
	Flagged  int `json:"flagged"`
	// Iterations and Converged describe the outer loop; Sweeps totals the
	// ASD sweeps CORRECT ran across rounds and axes; WarmStarted reports
	// whether CORRECT consumed the previous window's factors.
	Iterations  int  `json:"iterations"`
	Sweeps      int  `json:"sweeps"`
	Converged   bool `json:"converged"`
	WarmStarted bool `json:"warm_started"`
	// QueueWaitMS and RunMS are this window's queue residence and
	// detection wall-clock times.
	QueueWaitMS float64 `json:"queue_wait_ms"`
	RunMS       float64 `json:"run_ms"`
	// Flags lists the faulty cells.
	Flags []CellFlag `json:"flags"`
	// Output and Input carry the full matrices for in-process consumers;
	// they are withheld from JSON.
	Output *core.Output `json:"-"`
	Input  core.Input   `json:"-"`
}

// job is one snapshotted window awaiting a worker.
type job struct {
	sh       *shard
	seq      int
	start    int
	observed int
	in       core.Input
	// stamps snapshots the ingest stamps of the window's cells that no
	// earlier window aged (unix micros, 0 elsewhere) so the worker can
	// observe ingest→result latency once per report;
	// traceID is the exemplar trace linked at window close (0 if none).
	stamps   *mat.Dense
	traceID  uint64
	enqueued time.Time
}

// shard is one fleet's ring-buffered stream state. The rings are
// slot-major, (W+H)×Participants: a slot lives at row slot%(W+H), so the
// reports of one slot, which arrive together, write neighbouring cells.
// Because writes are confined to [start, start+W) and the outgoing hop is
// zeroed on every slide, distinct live slots never collide modulo the
// capacity.
type shard struct {
	fleet string

	mu    sync.Mutex
	start int // first slot of the open window
	seq   int // sequence number the open window will get

	sx, sy, vx, vy, ex *mat.Dense

	// ts mirrors the rings with each cell's ingest stamp in unix micros
	// (as float64 — exact until 2255), 0 where unstamped. The first window
	// close that observes a stamp negates it, so the windows overlapping
	// that cell later do not count its age again. It slides and zeroes
	// with the other five and is checkpointed alongside them, so freshness
	// accounting survives crash/recovery without re-stamping.
	ts *mat.Dense

	// lane runs this fleet's windows, one at a time in seq order.
	lane *lane

	// warm carries the factors of the newest processed window and warmSeq
	// that window's seq (recorded by checkpoints), latest the newest
	// result; all three are guarded by mu.
	warm    *core.WarmState
	warmSeq int
	latest  *WindowResult

	// dropped counts this fleet's windows evicted under backpressure;
	// spans retains the fleet's most recent trace records and traces the
	// end-to-end stage records of recent stamped reports.
	dropped atomic.Uint64
	spans   *obs.Ring
	traces  *obs.TraceTable

	// ageAtClose and ingestToResult are the fleet-local freshness
	// histograms (the engine-wide pair lives in counters).
	ageAtClose     *metrics.Histogram
	ingestToResult *metrics.Histogram
}

// lane is one worker's dispatch queue.
type lane struct {
	q  chan job
	mu sync.Mutex // serializes the send-or-drop-oldest dance
}

// Engine is the streaming detection engine. It implements mcs.Ingestor, so
// an mcs.Server can feed it directly from the TCP transport. All methods
// are safe for concurrent use.
type Engine struct {
	cfg Config

	// lifeMu is the ingestion gate. Ingestion holds the read side for its
	// full critical path, so every window it closes is enqueued (or counted
	// empty) before the gate opens; shutdown and Checkpoint hold the write
	// side. Workers never take it.
	lifeMu sync.RWMutex
	closed bool

	// shards maps fleet to shard (nil before the first). The map is
	// copy-on-write: readers load it without a lock, and addShard, holding
	// shardMu, publishes a new map with the shard added. shardMu serializes
	// materialization, so the MaxFleets check and the publish are one step.
	shardMu sync.Mutex
	shards  atomic.Pointer[map[string]*shard]

	lanes []*lane
	wg    sync.WaitGroup

	// settled is signalled (under settleMu) each time a closed window
	// reaches a terminal state; Checkpoint waits on it to drain.
	settleMu sync.Mutex
	settled  *sync.Cond

	subMu      sync.Mutex
	subs       map[int]chan *WindowResult
	nextSub    int
	subsClosed bool

	c    counters
	hist struct {
		detect, correct, check, run, wait *metrics.Histogram
	}

	// replayStamped counts stamped replayed records and replayCommitUS
	// holds the newest clock reading their wal_commit stages share (see
	// replayCommitTime).
	replayStamped  atomic.Uint64
	replayCommitUS atomic.Int64
}

// New validates the configuration and starts the worker pool. The caller
// must Close the engine to stop the workers and drain the queue.
func New(cfg Config) (*Engine, error) {
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 16
	}
	if cfg.MaxFleets == 0 {
		cfg.MaxFleets = 64
	}
	if cfg.TraceDepth == 0 {
		cfg.TraceDepth = 64
	}
	if cfg.Clock == nil {
		cfg.Clock = fault.RealClock()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:   cfg,
		lanes: make([]*lane, cfg.Workers),
		subs:  make(map[int]chan *WindowResult),
	}
	e.settled = sync.NewCond(&e.settleMu)
	for i := range e.lanes {
		// The capacities (QueueDepth+i)/Workers sum to QueueDepth.
		e.lanes[i] = &lane{q: make(chan job, max(1, (cfg.QueueDepth+i)/cfg.Workers))}
	}
	e.c.ageAtClose = metrics.NewHistogram(metrics.AgeBuckets)
	e.c.ingestToResult = metrics.NewHistogram(metrics.AgeBuckets)
	phase := func() *metrics.Histogram { return metrics.NewHistogram(metrics.HistBuckets) }
	e.hist.detect, e.hist.correct, e.hist.check, e.hist.run, e.hist.wait = phase(), phase(), phase(), phase(), phase()
	e.wg.Add(cfg.Workers)
	for _, l := range e.lanes {
		go e.worker(l)
	}
	return e, nil
}

// Ingest routes one report into its fleet's ring buffer, closing and
// dispatching any windows the report's slot has passed. It is the
// mcs.Ingestor entry point: rejections are returned (and counted) so the
// transport can acknowledge each upload honestly. With Config.Log set the
// report is appended to the write-ahead log before any shard state
// changes, so every acked report is as durable as the log's fsync policy.
// It is IngestBatch of one report.
func (e *Engine) Ingest(r mcs.Report) error {
	return e.ingestOne(&r, false)
}

// IngestBatch is Ingest for many reports: report i's verdict goes to
// errs[i] (len(errs) must be at least len(rs)). The verdicts, the log's
// records and the engine state are those of ingesting rs one at a time in
// order, but every report that passes the checks goes to the log in one
// AppendBatch: one commit for the whole batch. It is the mcs.BatchIngestor
// entry point, fed one read's worth of report lines by the TCP door.
func (e *Engine) IngestBatch(rs []mcs.Report, errs []error) {
	e.ingest(rs, errs, false)
}

// Replay is Ingest for WAL recovery: the record is already in the log, so
// it is not re-appended, and acceptance is counted under Stats.Replayed.
// Rejections (duplicates of cells the checkpoint already holds, slots
// behind a restored watermark) are expected and harmless.
func (e *Engine) Replay(r mcs.Report) error {
	return e.ingestOne(&r, true)
}

// ingestOne is ingest of one report, handed over in place: the one-element
// slices alias r and the returned error, so the report is not copied again
// on its way in (replay feeds every record of the log tail through here).
func (e *Engine) ingestOne(r *mcs.Report, replay bool) (err error) {
	e.ingest(unsafe.Slice(r, 1), unsafe.Slice(&err, 1), replay)
	return err
}

// ingest is the one ingest path, in three passes under one read lock of
// the ingestion gate. First every report is checked in order (closed,
// participant range, slot, finiteness, fleet materialization); none of
// these checks reads shard state, so checking them all before applying
// any yields the verdicts of one-at-a-time ingestion. Then the survivors
// go to the log in one AppendBatch; if it fails, every survivor is
// rejected and none is applied. Last, each survivor is applied in order.
func (e *Engine) ingest(rs []mcs.Report, errs []error, replay bool) {
	e.lifeMu.RLock()
	defer e.lifeMu.RUnlock()
	// A one-report call keeps its shard on the stack: replay feeds every
	// record of the log tail through here one at a time.
	var one [1]*shard
	shards := one[:]
	if len(rs) > 1 {
		shards = make([]*shard, len(rs))
	}
	survivors := 0
	for i := range rs {
		shards[i], errs[i] = e.check(&rs[i])
		if errs[i] != nil {
			e.c.rejected.Add(1)
			continue
		}
		survivors++
	}
	if survivors == 0 {
		return
	}
	// A stamped report's trace opens with its wal_commit stage when the
	// record is durable, timed (once per call, by the first stamped report)
	// as the append returns; a replayed record was committed before the
	// crash, and its stage says so. Without a log there is no such stage.
	commit := &obs.TraceStage{}
	switch {
	case replay:
		commit.Detail = "replay"
	case e.cfg.Log == nil:
		commit = nil
	default:
		// Write-ahead: the log sees the reports before the shards do. A
		// record logged but rejected below (duplicate, late) just repeats
		// that rejection on replay; a record applied but not logged would
		// be silently lost on crash, so this order is the safe one. The
		// survivors are copied out so rs itself never escapes to the heap.
		logged := make([]mcs.Report, 0, survivors)
		for i := range rs {
			if errs[i] == nil {
				logged = append(logged, rs[i])
			}
		}
		if err := e.cfg.Log.AppendBatch(logged); err != nil {
			err = fmt.Errorf("pipeline: wal append: %w", err)
			for i := range rs {
				if errs[i] == nil {
					errs[i] = err
					e.c.rejected.Add(1)
				}
			}
			return
		}
	}
	for i := range rs {
		if errs[i] == nil {
			errs[i] = e.apply(shards[i], &rs[i], replay, commit)
		}
	}
}

// check runs the checks that need no shard state and returns the report's
// shard, materializing it on first sight.
func (e *Engine) check(r *mcs.Report) (*shard, error) {
	if e.closed {
		return nil, ErrClosed
	}
	if r.Participant < 0 || r.Participant >= e.cfg.Participants {
		return nil, fmt.Errorf("pipeline: participant %d outside [0,%d)", r.Participant, e.cfg.Participants)
	}
	if r.Slot < 0 {
		return nil, fmt.Errorf("pipeline: negative slot %d", r.Slot)
	}
	if err := r.CheckFinite(); err != nil {
		e.c.nonFinite.Add(1)
		return nil, err
	}
	return e.shard(r.Fleet)
}

// apply writes one checked (and logged) report into its shard, dispatches
// the windows it closes, and counts it. A stamped report's trace gets the
// commit stage, if there is one; its time is read on first use.
func (e *Engine) apply(sh *shard, r *mcs.Report, replay bool, commit *obs.TraceStage) error {
	if r.Stamped() && commit != nil && commit.AtUnixMicro == 0 {
		if replay {
			commit.AtUnixMicro = e.replayCommitTime()
		} else {
			commit.AtUnixMicro = e.cfg.Clock.Now().UnixMicro()
		}
	}
	closedBefore := e.c.windowsClosed.Load()
	jobs, err := sh.ingest(r, &e.cfg, &e.c, commit)
	for _, j := range jobs {
		e.enqueue(j)
	}
	if e.cfg.OnWindowClose != nil {
		if closedAfter := e.c.windowsClosed.Load(); closedAfter != closedBefore {
			e.cfg.OnWindowClose(closedAfter)
		}
	}
	if err != nil {
		e.c.rejected.Add(1)
		return err
	}
	e.c.ingested.Add(1)
	if r.Stamped() {
		e.c.stamped.Add(1)
	} else {
		e.c.unstamped.Add(1)
	}
	if e.cfg.Gate == nil {
		e.c.admittedClean.Add(1)
	} else {
		switch e.cfg.Gate.Admit(r.Fleet, r.Participant) {
		case AdmitQuarantined:
			e.c.taggedQuarantined.Add(1)
		case AdmitProbation:
			e.c.taggedProbation.Add(1)
		default:
			e.c.admittedClean.Add(1)
		}
	}
	if replay {
		e.c.replayed.Add(1)
	}
	return nil
}

// replayClockEvery is how many stamped replayed records share one clock
// reading as their wal_commit time.
const replayClockEvery = 1024

// replayCommitTime is the wal_commit time of a stamped replayed record.
// Replay is one call per record, so reading the clock for each would cost
// a clock read per record of the log tail; instead the first of every
// replayClockEvery such records reads it and the others reuse the newest
// reading. Each reading is taken before any record that uses it is applied,
// so a stage is never later than its record's apply, only earlier by at
// most the time the records in between take to replay.
func (e *Engine) replayCommitTime() int64 {
	at := e.replayCommitUS.Load()
	if e.replayStamped.Add(1)%replayClockEvery == 1 || at == 0 {
		at = e.cfg.Clock.Now().UnixMicro()
		e.replayCommitUS.Store(at)
	}
	return at
}

// Flush closes the fleet's open window early — regardless of how far it has
// filled — and dispatches it if it holds any observations. It lets a
// shutdown or a test drain a stream that will not receive further reports.
func (e *Engine) Flush(fleet string) error {
	e.lifeMu.RLock()
	defer e.lifeMu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	sh := e.lookup(fleet)
	if sh == nil {
		return fmt.Errorf("%w: %q", ErrUnknownFleet, fleet)
	}
	sh.mu.Lock()
	j, ok := sh.closeWindow(&e.cfg, &e.c)
	sh.mu.Unlock()
	if ok {
		e.enqueue(j)
	}
	return nil
}

// Close stops ingestion, flushes every fleet's still-open partial window
// through the detection loop, lets the workers drain the queue, and then
// closes all subscription channels: a graceful shutdown loses no accepted
// report. It is idempotent and safe to call concurrently with Ingest. See
// Abort for the non-draining variant.
func (e *Engine) Close() {
	e.shutdown(true)
}

// Abort stops the engine without flushing open windows or draining the
// dispatch queue — the fate of a process that crashed. Tests use it to
// simulate a SIGKILL before exercising WAL recovery.
func (e *Engine) Abort() {
	e.shutdown(false)
}

func (e *Engine) shutdown(drain bool) {
	e.lifeMu.Lock()
	if e.closed {
		e.lifeMu.Unlock()
		e.wg.Wait()
		return
	}
	e.closed = true
	if drain {
		// Flush each shard's open partial window; its reports were accepted
		// (and possibly acked durable) so dropping them on shutdown would
		// betray the transport's acknowledgements. The gate stays shut
		// while the flush closes windows, as it does for ingestion.
		for _, sh := range e.allShards() {
			sh.mu.Lock()
			j, ok := sh.closeWindow(&e.cfg, &e.c)
			sh.mu.Unlock()
			if ok {
				e.enqueue(j)
			}
		}
	} else {
		// Crash semantics: discard whatever is queued so workers exit at
		// once; the WAL (when configured) already holds the reports.
		for _, l := range e.lanes {
		drop:
			for {
				select {
				case j := <-l.q:
					e.noteDropped(j)
				default:
					break drop
				}
			}
		}
	}
	e.lifeMu.Unlock()
	for _, l := range e.lanes {
		close(l.q)
	}
	e.wg.Wait()
	e.subMu.Lock()
	e.subsClosed = true
	for id, ch := range e.subs {
		delete(e.subs, id)
		close(ch)
	}
	e.subMu.Unlock()
}

// shardMap returns the published fleet → shard map; callers only read it.
func (e *Engine) shardMap() map[string]*shard {
	if m := e.shards.Load(); m != nil {
		return *m
	}
	return nil
}

// lookup returns the fleet's shard, or nil for a fleet never seen.
func (e *Engine) lookup(fleet string) *shard {
	return e.shardMap()[fleet]
}

// allShards snapshots the shard list.
func (e *Engine) allShards() []*shard {
	m := e.shardMap()
	shards := make([]*shard, 0, len(m))
	for _, sh := range m {
		shards = append(shards, sh)
	}
	return shards
}

// Checkpoint freezes the engine's durable state: every shard's ring
// buffers, window position, and warm-start factors, stamped with the log
// index the snapshot is consistent with. It shuts the ingestion gate and,
// before snapshotting, waits until every closed window has reached a
// terminal state (processed, failed, dropped or empty), so the snapshot
// holds the warm factors of each fleet's newest processed window and an
// OnResult consumer has seen every window the shards have cut. Ingestion
// stalls for that wait: up to the detection time of the queued backlog.
// When a ReportLog is configured it is synced before Checkpoint returns,
// so the checkpoint never references records less durable than itself.
// Recovery = Restore(checkpoint) + Replay of log records from
// Checkpoint.LogIndex on. Checkpointing a Closed engine is allowed — the
// daemon writes a final checkpoint after its shutdown drain so a clean
// restart replays nothing.
func (e *Engine) Checkpoint() (*wal.Checkpoint, error) {
	// With the gate shut no report is between its log append and its shard
	// apply, and no window is between its close and its enqueue, so the
	// drain below finishes and AppendedIndex matches the snapshot exactly.
	e.lifeMu.Lock()
	e.settleMu.Lock()
	for !e.drained() {
		e.settled.Wait()
	}
	e.settleMu.Unlock()
	var logIdx uint64
	if e.cfg.Log != nil {
		logIdx = e.cfg.Log.AppendedIndex()
	}
	ck := &wal.Checkpoint{
		LogIndex:     logIdx,
		Participants: e.cfg.Participants,
		WindowSlots:  e.cfg.WindowSlots,
		HopSlots:     e.cfg.HopSlots,
	}
	for _, sh := range e.allShards() {
		sh.mu.Lock()
		sc := wal.ShardCheckpoint{
			Fleet:   sh.fleet,
			Start:   sh.start,
			Seq:     sh.seq,
			WarmSeq: sh.warmSeq,
			SX:      sh.sx.Clone(),
			SY:      sh.sy.Clone(),
			VX:      sh.vx.Clone(),
			VY:      sh.vy.Clone(),
			EX:      sh.ex.Clone(),
			TS:      sh.ts.Clone(),
		}
		if sh.warm != nil {
			sc.WarmLX, sc.WarmRX = sh.warm.X.L.Clone(), sh.warm.X.R.Clone()
			sc.WarmLY, sc.WarmRY = sh.warm.Y.L.Clone(), sh.warm.Y.R.Clone()
		}
		sh.mu.Unlock()
		ck.Shards = append(ck.Shards, sc)
	}
	e.lifeMu.Unlock()
	if e.cfg.Log != nil {
		if err := e.cfg.Log.Sync(); err != nil {
			return nil, fmt.Errorf("pipeline: checkpoint sync: %w", err)
		}
	}
	return ck, nil
}

// drained reports whether every closed window has reached a terminal state.
func (e *Engine) drained() bool {
	c := &e.c
	return c.windowsClosed.Load() == c.windowsEmpty.Load()+c.windowsDropped.Load()+c.windowsDone.Load()+c.windowsFailed.Load()
}

// settle wakes a Checkpoint waiting for the engine to drain; it follows
// every count of a terminal state made outside the ingestion gate.
func (e *Engine) settle() {
	e.settleMu.Lock()
	e.settled.Broadcast()
	e.settleMu.Unlock()
}

// Restore rebuilds the engine's shards from a checkpoint. It must run on a
// fresh engine — before any report has been ingested — and the checkpoint's
// shape must match the configuration. After Restore, replay the log tail
// through Replay and resume normal ingestion.
func (e *Engine) Restore(ck *wal.Checkpoint) error {
	if ck.Participants != e.cfg.Participants || ck.WindowSlots != e.cfg.WindowSlots || ck.HopSlots != e.cfg.HopSlots {
		return fmt.Errorf("%w: checkpoint shape %d/%d/%d vs config %d/%d/%d",
			ErrNotRestorable, ck.Participants, ck.WindowSlots, ck.HopSlots,
			e.cfg.Participants, e.cfg.WindowSlots, e.cfg.HopSlots)
	}
	capSlots, n := e.cfg.WindowSlots+e.cfg.HopSlots, e.cfg.Participants
	for i := range ck.Shards {
		sc := &ck.Shards[i]
		for _, r := range []struct {
			name string
			m    *mat.Dense
		}{{"SX", sc.SX}, {"SY", sc.SY}, {"VX", sc.VX}, {"VY", sc.VY}, {"EX", sc.EX}, {"TS", sc.TS}} {
			if r.m == nil {
				return fmt.Errorf("%w: shard %q missing ring %s", ErrNotRestorable, sc.Fleet, r.name)
			}
			if mr, mc := r.m.Dims(); mr != capSlots || mc != n {
				return fmt.Errorf("%w: shard %q ring %s is %dx%d, want %dx%d",
					ErrNotRestorable, sc.Fleet, r.name, mr, mc, capSlots, n)
			}
		}
	}
	if len(ck.Shards) > e.cfg.MaxFleets {
		return fmt.Errorf("%w: checkpoint holds %d shards, max-fleets is %d",
			ErrNotRestorable, len(ck.Shards), e.cfg.MaxFleets)
	}
	e.lifeMu.Lock()
	defer e.lifeMu.Unlock()
	if e.closed {
		return ErrClosed
	}
	e.shardMu.Lock()
	defer e.shardMu.Unlock()
	if n := len(e.shardMap()); n != 0 {
		return fmt.Errorf("%w: %d shards already live", ErrNotRestorable, n)
	}
	for i := range ck.Shards {
		sc := &ck.Shards[i]
		sh := &shard{
			fleet:   sc.Fleet,
			start:   sc.Start,
			seq:     sc.Seq,
			warmSeq: sc.WarmSeq,
			sx:      sc.SX,
			sy:      sc.SY,
			vx:      sc.VX,
			vy:      sc.VY,
			ex:      sc.EX,
			ts:      sc.TS,
		}
		if sc.WarmLX != nil {
			sh.warm = &core.WarmState{
				X: csrecon.Factors{L: sc.WarmLX, R: sc.WarmRX},
				Y: csrecon.Factors{L: sc.WarmLY, R: sc.WarmRY},
			}
		}
		e.addShard(sh)
	}
	return nil
}

// Subscribe registers a result channel with the given buffer (minimum 1).
// A subscriber that falls behind loses results rather than stalling the
// workers: each undeliverable result is counted in Stats.SubscriberDrops.
// The channel closes on cancel or engine Close; cancel is idempotent.
func (e *Engine) Subscribe(buffer int) (<-chan *WindowResult, func()) {
	if buffer < 1 {
		buffer = 1
	}
	ch := make(chan *WindowResult, buffer)
	e.subMu.Lock()
	defer e.subMu.Unlock()
	if e.subsClosed {
		close(ch)
		return ch, func() {}
	}
	id := e.nextSub
	e.nextSub++
	e.subs[id] = ch
	cancel := func() {
		e.subMu.Lock()
		defer e.subMu.Unlock()
		if _, ok := e.subs[id]; ok {
			delete(e.subs, id)
			close(ch)
		}
	}
	return ch, cancel
}

// Latest returns the newest completed window result for the fleet. It
// returns ErrUnknownFleet for a fleet that has never reported and
// ErrNoResult for a known fleet with no completed window yet; the result is
// non-nil exactly when the error is nil.
func (e *Engine) Latest(fleet string) (*WindowResult, error) {
	sh := e.lookup(fleet)
	if sh == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownFleet, fleet)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.latest == nil {
		return nil, fmt.Errorf("%w: fleet %q", ErrNoResult, fleet)
	}
	return sh.latest, nil
}

// Trace returns the fleet's retained window trace spans, newest first (up
// to Config.TraceDepth). An empty slice means the fleet exists but no
// window has completed recently; an unknown fleet is an error.
func (e *Engine) Trace(fleet string) ([]obs.Span, error) {
	sh := e.lookup(fleet)
	if sh == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownFleet, fleet)
	}
	return sh.spans.Snapshot(), nil
}

// Traces returns the fleet's retained end-to-end report traces, newest
// first (up to Config.TraceDepth). Only stamped reports are traced, so a
// fleet fed exclusively by unstamped sources returns an empty slice.
func (e *Engine) Traces(fleet string) ([]obs.Trace, error) {
	sh := e.lookup(fleet)
	if sh == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownFleet, fleet)
	}
	return sh.traces.Snapshot(), nil
}

// FindTrace looks up one retained trace by fleet and trace ID.
func (e *Engine) FindTrace(fleet string, id uint64) (obs.Trace, bool) {
	sh := e.lookup(fleet)
	if sh == nil {
		return obs.Trace{}, false
	}
	return sh.traces.Lookup(id)
}

// Fleets lists the materialized fleet IDs, sorted.
func (e *Engine) Fleets() []string {
	m := e.shardMap()
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Stats snapshots the engine's instrumentation.
func (e *Engine) Stats() Stats {
	s := Stats{
		Ingested:          e.c.ingested.Load(),
		AdmittedClean:     e.c.admittedClean.Load(),
		TaggedQuarantined: e.c.taggedQuarantined.Load(),
		TaggedProbation:   e.c.taggedProbation.Load(),
		Replayed:          e.c.replayed.Load(),
		Rejected:          e.c.rejected.Load(),
		Late:              e.c.late.Load(),
		Duplicates:        e.c.duplicates.Load(),
		NonFinite:         e.c.nonFinite.Load(),
		ReportsStamped:    e.c.stamped.Load(),
		ReportsUnstamped:  e.c.unstamped.Load(),
		WindowsClosed:     e.c.windowsClosed.Load(),
		WindowsEmpty:      e.c.windowsEmpty.Load(),
		WindowsSkipped:    e.c.windowsSkipped.Load(),
		WindowsDropped:    e.c.windowsDropped.Load(),
		WindowsProcessed:  e.c.windowsDone.Load(),
		WindowsFailed:     e.c.windowsFailed.Load(),
		WarmStarts:        e.c.warmStarts.Load(),
		ColdStarts:        e.c.coldStarts.Load(),
		SubscriberDrops:   e.c.subscriberDrops.Load(),
		PhaseLatency: map[string]HistogramSnapshot{
			"detect":  e.hist.detect.Snapshot(),
			"correct": e.hist.correct.Snapshot(),
			"check":   e.hist.check.Snapshot(),
			"run":     e.hist.run.Snapshot(),
			"wait":    e.hist.wait.Snapshot(),
		},
		AgeAtClose:     e.c.ageAtClose.Snapshot(),
		IngestToResult: e.c.ingestToResult.Snapshot(),
	}
	for _, l := range e.lanes {
		s.QueueDepth += len(l.q)
		s.QueueCapacity += cap(l.q)
	}
	for _, sh := range e.allShards() {
		if n := sh.dropped.Load(); n != 0 {
			if s.WindowsDroppedByFleet == nil {
				s.WindowsDroppedByFleet = make(map[string]uint64)
			}
			s.WindowsDroppedByFleet[sh.fleet] = n
		}
		ff := FleetFreshness{
			LatestSeq:      -1,
			AgeAtClose:     sh.ageAtClose.Snapshot(),
			IngestToResult: sh.ingestToResult.Snapshot(),
		}
		sh.mu.Lock()
		ff.WatermarkSlot = sh.start
		ff.NextSeq = sh.seq
		if sh.latest != nil {
			ff.LatestSeq = sh.latest.Seq
		}
		sh.mu.Unlock()
		if s.Freshness == nil {
			s.Freshness = make(map[string]FleetFreshness)
		}
		s.Freshness[sh.fleet] = ff
		s.Fleets++
	}
	return s
}

// shard returns the fleet's shard, materializing it on first sight. A
// known fleet's shard is found without a lock.
func (e *Engine) shard(fleet string) (*shard, error) {
	if sh := e.lookup(fleet); sh != nil {
		return sh, nil
	}
	e.shardMu.Lock()
	defer e.shardMu.Unlock()
	m := e.shardMap()
	if sh, ok := m[fleet]; ok {
		return sh, nil
	}
	if len(m) >= e.cfg.MaxFleets {
		return nil, fmt.Errorf("%w: %d shards live, fleet %q refused", ErrTooManyFleets, len(m), fleet)
	}
	capSlots, n := e.cfg.WindowSlots+e.cfg.HopSlots, e.cfg.Participants
	sh := &shard{
		fleet:   fleet,
		warmSeq: -1,
		sx:      mat.New(capSlots, n),
		sy:      mat.New(capSlots, n),
		vx:      mat.New(capSlots, n),
		vy:      mat.New(capSlots, n),
		ex:      mat.New(capSlots, n),
		ts:      mat.New(capSlots, n),
	}
	e.addShard(sh)
	return sh, nil
}

// addShard registers a shard holding its stream state: it gets fresh trace
// and freshness state and the next lane, round-robin, which it keeps for
// life. It publishes a copy of the shard map with the shard added, so
// lock-free readers see either map whole. Callers hold shardMu.
func (e *Engine) addShard(sh *shard) {
	old := e.shardMap()
	sh.lane = e.lanes[len(old)%len(e.lanes)]
	sh.spans = obs.NewRing(e.cfg.TraceDepth)
	sh.traces = obs.NewTraceTable(e.cfg.TraceDepth)
	sh.ageAtClose = metrics.NewHistogram(metrics.AgeBuckets)
	sh.ingestToResult = metrics.NewHistogram(metrics.AgeBuckets)
	m := make(map[string]*shard, len(old)+1)
	for name, s := range old {
		m[name] = s
	}
	m[sh.fleet] = sh
	e.shards.Store(&m)
}

// enqueue places a job on its fleet's lane, evicting the lane's oldest
// queued window when full. The lane's mutex admits one producer at a time,
// so after at most one eviction the send succeeds (the worker only ever
// makes room). Evictions are accounted after the mutex is released so an
// Observer callback cannot stall a competing producer.
func (e *Engine) enqueue(j job) {
	l := j.sh.lane
	var evicted []job
	l.mu.Lock()
	for {
		select {
		case l.q <- j:
			l.mu.Unlock()
			for _, old := range evicted {
				e.noteDropped(old)
			}
			return
		default:
		}
		select {
		case old := <-l.q:
			evicted = append(evicted, old)
		default:
		}
	}
}

// noteDropped records one evicted window: the global and per-fleet drop
// counters move, and the observer hears which fleet lost which window —
// these are fully ingested (and, when durable, WAL-acked) windows whose
// disappearance used to be a bare counter bump.
func (e *Engine) noteDropped(j job) {
	e.c.windowsDropped.Add(1)
	j.sh.dropped.Add(1)
	if e.cfg.Obs != nil {
		e.cfg.Obs.WindowDropped(j.sh.fleet, j.seq, len(j.sh.lane.q))
	}
}

// ingest stores one report, first closing every window the slot has passed.
// It returns the closed windows ready for dispatch together with the
// report's own acceptance error, if any: a late or duplicate report still
// advances the stream's watermark. An accepted stamped report opens its
// trace here, with the ingest stage and then the commit stage if non-nil,
// before the shard lock is released: the next window close to cover the
// slot then finds the trace whole.
func (sh *shard) ingest(r *mcs.Report, cfg *Config, c *counters, commit *obs.TraceStage) ([]job, error) {
	w, h := cfg.WindowSlots, cfg.HopSlots
	capSlots := w + h
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if r.Slot < sh.start {
		c.late.Add(1)
		return nil, fmt.Errorf("%w: slot %d precedes window start %d", ErrLateReport, r.Slot, sh.start)
	}
	var jobs []job
	for closes := 0; r.Slot >= sh.start+w; closes++ {
		if closes >= maxCatchUpCloses {
			// Fast-forward past the gap: skip whole hops until the slot
			// fits the open window again. Only live slots need zeroing,
			// and writes are confined to [start, start+w).
			k := (r.Slot-(sh.start+w))/h + 1
			sh.zeroSlots(sh.start, minInt(k*h, w), capSlots)
			sh.start += k * h
			sh.seq += k
			c.windowsSkipped.Add(uint64(k))
			break
		}
		if j, ok := sh.closeWindow(cfg, c); ok {
			jobs = append(jobs, j)
		}
	}
	row, p := r.Slot%capSlots, r.Participant
	ex := sh.ex.RowView(row)
	if ex[p] != 0 {
		c.duplicates.Add(1)
		return jobs, fmt.Errorf("%w: participant %d slot %d", mcs.ErrDuplicateReport, r.Participant, r.Slot)
	}
	ex[p] = 1
	sh.sx.RowView(row)[p], sh.sy.RowView(row)[p] = r.X, r.Y
	sh.vx.RowView(row)[p], sh.vy.RowView(row)[p] = r.VX, r.VY
	sh.ts.RowView(row)[p] = float64(r.IngestUnixMicro)
	if r.Stamped() {
		// The ingest stage carries the door's stamp time, not ours; the
		// engine never stamps, so replay re-delivers the original timeline.
		sh.traces.Begin(r.TraceID, sh.fleet, r.Participant, r.Slot, r.Origin.String(), r.IngestUnixMicro, commit)
	}
	return jobs, nil
}

// closeWindow snapshots the open window into a fresh core.Input, slides the
// ring forward one hop, counts the close (and, when the window held no
// observations, the empty close), and reports whether the window held any
// observations. Every stamped cell no earlier close has aged gets its age
// (close time − ingest stamp) observed into the shard and engine freshness
// histograms, is marked aged, and goes into the job's stamps; the window
// also claims its still-unclaimed traces. Callers hold sh.mu.
func (sh *shard) closeWindow(cfg *Config, c *counters) (job, bool) {
	w, h := cfg.WindowSlots, cfg.HopSlots
	capSlots := w + h
	n := cfg.Participants
	in := core.Input{
		SX: mat.New(n, w), SY: mat.New(n, w),
		VX: mat.New(n, w), VY: mat.New(n, w),
		Existence: mat.New(n, w),
	}
	stamps := mat.New(n, w)
	closedAt := cfg.clock().Now()
	closedUS := closedAt.UnixMicro()
	observed := 0
	// Gather each slot's ring row into column t of the participant-major
	// window matrices.
	dx, dy, dts := in.SX.RawData(), in.SY.RawData(), stamps.RawData()
	dvx, dvy, de := in.VX.RawData(), in.VY.RawData(), in.Existence.RawData()
	for t := 0; t < w; t++ {
		src := (sh.start + t) % capSlots
		sxr, syr := sh.sx.RowView(src), sh.sy.RowView(src)
		vxr, vyr, exr := sh.vx.RowView(src), sh.vy.RowView(src), sh.ex.RowView(src)
		tsr := sh.ts.RowView(src)
		for i := 0; i < n; i++ {
			if exr[i] == 0 {
				continue
			}
			d := i*w + t
			dx[d], dy[d] = sxr[i], syr[i]
			dvx[d], dvy[d] = vxr[i], vyr[i]
			de[d] = 1
			observed++
			if st := tsr[i]; st > 0 {
				dts[d] = st
				tsr[i] = -st
				age := time.Duration(closedUS-int64(st)) * time.Microsecond
				sh.ageAtClose.Observe(age)
				c.ageAtClose.Observe(age)
			}
		}
	}
	// Link the close into the traces of every report this window is the
	// first to consume; the first linked trace becomes the window's
	// exemplar, surfaced on its span.
	var traceID uint64
	if linked := sh.traces.StageWindow(sh.seq, sh.start, sh.start+w, closedUS); len(linked) > 0 {
		traceID = linked[0]
	}
	j := job{
		sh:       sh,
		seq:      sh.seq,
		start:    sh.start,
		observed: observed,
		in:       in,
		stamps:   stamps,
		traceID:  traceID,
		enqueued: closedAt,
	}
	sh.zeroSlots(sh.start, h, capSlots)
	sh.start += h
	sh.seq++
	c.windowsClosed.Add(1)
	if observed == 0 {
		c.windowsEmpty.Add(1)
		return job{}, false
	}
	return j, true
}

// zeroSlots clears the ring rows of count slots starting at absolute slot from.
func (sh *shard) zeroSlots(from, count, capSlots int) {
	for t := 0; t < count; t++ {
		row := (from + t) % capSlots
		for _, m := range [...]*mat.Dense{sh.sx, sh.sy, sh.vx, sh.vy, sh.ex, sh.ts} {
			clear(m.RowView(row))
		}
	}
}

// worker runs its lane's windows in order until Close.
func (e *Engine) worker(l *lane) {
	defer e.wg.Done()
	for j := range l.q {
		e.process(j)
	}
}

// process runs the detection loop on one window, updates the fleet's warm
// state and latest result, and publishes to subscribers.
func (e *Engine) process(j job) {
	e.hist.wait.Observe(e.cfg.Clock.Since(j.enqueued))
	j.sh.mu.Lock()
	warm := j.sh.warm
	j.sh.mu.Unlock()
	began := e.cfg.Clock.Now()
	out, err := core.RunWarm(e.cfg.Core, j.in, warm)
	if err != nil {
		// A window the core refuses (it validated shapes we built, so this
		// is effectively unreachable) is dropped but visible in the stats
		// and reported to the observer instead of vanishing silently.
		e.c.windowsFailed.Add(1)
		e.settle()
		if e.cfg.Obs != nil {
			e.cfg.Obs.WindowFailed(j.sh.fleet, j.seq, err)
		}
		return
	}
	runDur := e.cfg.Clock.Since(began)
	e.hist.run.Observe(runDur)
	e.hist.detect.Observe(out.DetectDuration)
	e.hist.correct.Observe(out.CorrectDuration)
	e.hist.check.Observe(out.CheckDuration)
	if out.WarmStarted {
		e.c.warmStarts.Add(1)
	} else {
		e.c.coldStarts.Add(1)
	}

	res := &WindowResult{
		Fleet:       j.sh.fleet,
		Seq:         j.seq,
		StartSlot:   j.start,
		EndSlot:     j.start + e.cfg.WindowSlots,
		Observed:    j.observed,
		Iterations:  out.Iterations,
		Sweeps:      out.Sweeps,
		Converged:   out.Converged,
		WarmStarted: out.WarmStarted,
		QueueWaitMS: float64(began.Sub(j.enqueued)) / 1e6,
		RunMS:       float64(runDur) / 1e6,
		Flags:       collectFlags(out.Detection, j.start),
		Output:      out,
		Input:       j.in,
	}
	res.Flagged = len(res.Flags)

	completedAt := e.cfg.Clock.Now()
	// Ingest→result: every stamped cell this window was the first to age
	// has now traveled the full path from its front-door stamp to a
	// published detection verdict.
	if j.stamps != nil {
		completedUS := completedAt.UnixMicro()
		n, w := j.stamps.Dims()
		for i := 0; i < n; i++ {
			row := j.stamps.RowView(i)
			for t := 0; t < w; t++ {
				if st := row[t]; st > 0 {
					lat := time.Duration(completedUS-int64(st)) * time.Microsecond
					j.sh.ingestToResult.Observe(lat)
					e.c.ingestToResult.Observe(lat)
				}
			}
		}
		j.sh.traces.StageDetect(j.seq, res.Flagged, completedUS)
	}

	span := obs.Span{
		Fleet:       res.Fleet,
		Seq:         res.Seq,
		StartSlot:   res.StartSlot,
		EndSlot:     res.EndSlot,
		Observed:    res.Observed,
		Flagged:     res.Flagged,
		Iterations:  res.Iterations,
		Sweeps:      res.Sweeps,
		Converged:   res.Converged,
		WarmStarted: res.WarmStarted,
		QueueWaitMS: res.QueueWaitMS,
		DetectMS:    float64(out.DetectDuration) / 1e6,
		CorrectMS:   float64(out.CorrectDuration) / 1e6,
		CheckMS:     float64(out.CheckDuration) / 1e6,
		RunMS:       res.RunMS,
		CompletedAt: completedAt,
	}
	if j.traceID != 0 {
		span.TraceID = obs.TraceIDString(j.traceID)
	}
	j.sh.spans.Add(span)
	if e.cfg.Obs != nil {
		e.cfg.Obs.WindowProcessed(span)
	}

	j.sh.mu.Lock()
	j.sh.warm, j.sh.warmSeq, j.sh.latest = out.Warm, j.seq, res
	j.sh.mu.Unlock()

	if e.cfg.OnResult != nil {
		e.cfg.OnResult(res)
	}
	e.c.windowsDone.Add(1)
	e.settle()
	e.publish(res)
	j.sh.traces.StagePublish(j.seq, e.cfg.Clock.Now().UnixMicro())
}

// publish fans a result out to every subscriber without blocking.
func (e *Engine) publish(r *WindowResult) {
	e.subMu.Lock()
	defer e.subMu.Unlock()
	for _, ch := range e.subs {
		select {
		case ch <- r:
		default:
			e.c.subscriberDrops.Add(1)
		}
	}
}

// collectFlags lists the raised cells of a detection matrix with slots
// shifted onto the absolute timeline.
func collectFlags(d *mat.Dense, startSlot int) []CellFlag {
	var flags []CellFlag
	n, w := d.Dims()
	for i := 0; i < n; i++ {
		row := d.RowView(i)
		for t := 0; t < w; t++ {
			if row[t] != 0 {
				flags = append(flags, CellFlag{Participant: i, Slot: startSlot + t})
			}
		}
	}
	return flags
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
