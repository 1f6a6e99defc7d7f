package pipeline

import (
	"errors"
	"sync"
	"testing"
	"time"

	"itscs/internal/corrupt"
	"itscs/internal/mcs"
	"itscs/internal/obs"
	"itscs/internal/trace"
)

// mechConfig is a small configuration for window-mechanics tests that never
// run the detection loop (shard methods are exercised directly).
func mechConfig(n, w, h int) Config {
	cfg := DefaultConfig()
	cfg.Participants = n
	cfg.WindowSlots = w
	cfg.HopSlots = h
	return cfg
}

func report(p, slot int, v float64) mcs.Report {
	return mcs.Report{Participant: p, Slot: slot, X: v, Y: -v, VX: v / 10, VY: -v / 10}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Participants = 0 },
		func(c *Config) { c.WindowSlots = 0 },
		func(c *Config) { c.HopSlots = 0 },
		func(c *Config) { c.HopSlots = c.WindowSlots + 1 },
		func(c *Config) { c.Workers = -1 },
		func(c *Config) { c.QueueDepth = -1 },
		func(c *Config) { c.MaxFleets = -1 },
		func(c *Config) { c.Core.MaxIterations = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config accepted", i)
		}
	}
}

// TestShardWindowSlideAndSnapshot drives a shard directly through two
// window closes and checks the snapshots carry the right cells, including
// the overlap region surviving the slide.
func TestShardWindowSlideAndSnapshot(t *testing.T) {
	cfg := mechConfig(3, 6, 2)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sh, err := e.shard("")
	if err != nil {
		t.Fatal(err)
	}

	// Fill slots 0..5 for participant 0 with x = 100+slot.
	for s := 0; s < 6; s++ {
		if jobs, err := sh.ingest(report(0, s, float64(100+s)), cfg, &e.c, nil); err != nil || len(jobs) != 0 {
			t.Fatalf("slot %d: jobs=%d err=%v", s, len(jobs), err)
		}
	}
	// Slot 6 passes the far edge: window [0,6) closes.
	jobs, err := sh.ingest(report(1, 6, 206), cfg, &e.c, nil)
	if err != nil || len(jobs) != 1 {
		t.Fatalf("close: jobs=%d err=%v", len(jobs), err)
	}
	j := jobs[0]
	if j.seq != 0 || j.start != 0 || j.observed != 6 {
		t.Fatalf("job = seq %d start %d observed %d, want 0/0/6", j.seq, j.start, j.observed)
	}
	for s := 0; s < 6; s++ {
		if got := j.in.SX.At(0, s); got != float64(100+s) {
			t.Errorf("snapshot SX[0,%d] = %v, want %v", s, got, 100+s)
		}
		if got := j.in.Existence.At(0, s); got != 1 {
			t.Errorf("snapshot E[0,%d] = %v, want 1", s, got)
		}
	}
	if j.in.Existence.At(1, 0) != 0 || j.in.Existence.At(2, 3) != 0 {
		t.Error("snapshot marked unreported cells as observed")
	}

	// Next close at slot 8 cuts [2,8): the overlap slots 2..5 must retain
	// participant 0's values, slot 6 participant 1's, and the outgoing hop
	// [0,2) must have been zeroed out of the ring.
	jobs, err = sh.ingest(report(2, 8, 308), cfg, &e.c, nil)
	if err != nil || len(jobs) != 1 {
		t.Fatalf("second close: jobs=%d err=%v", len(jobs), err)
	}
	j = jobs[0]
	if j.seq != 1 || j.start != 2 || j.observed != 5 {
		t.Fatalf("job = seq %d start %d observed %d, want 1/2/5", j.seq, j.start, j.observed)
	}
	for s := 2; s < 6; s++ {
		if got := j.in.SX.At(0, s-2); got != float64(100+s) {
			t.Errorf("overlap SX[0,%d] = %v, want %v", s-2, got, 100+s)
		}
	}
	if got := j.in.SX.At(1, 4); got != 206 {
		t.Errorf("snapshot SX[1,4] = %v, want 206", got)
	}
}

func TestShardLateAndDuplicateReports(t *testing.T) {
	cfg := mechConfig(2, 4, 2)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sh, err := e.shard("")
	if err != nil {
		t.Fatal(err)
	}

	if _, err := sh.ingest(report(0, 1, 1), cfg, &e.c, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.ingest(report(0, 1, 2), cfg, &e.c, nil); !errors.Is(err, mcs.ErrDuplicateReport) {
		t.Fatalf("duplicate err = %v", err)
	}
	// Slide past slot 1 (close [0,4) at slot 4), then slot 1 is late.
	if _, err := sh.ingest(report(0, 4, 3), cfg, &e.c, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.ingest(report(1, 1, 4), cfg, &e.c, nil); !errors.Is(err, ErrLateReport) {
		t.Fatalf("late err = %v", err)
	}
	if got := e.c.duplicates.Load(); got != 1 {
		t.Errorf("duplicates = %d, want 1", got)
	}
	if got := e.c.late.Load(); got != 1 {
		t.Errorf("late = %d, want 1", got)
	}
}

// TestShardFastForward checks a far-future slot skips whole hops instead of
// closing hundreds of windows, and leaves the ring clean for new data.
func TestShardFastForward(t *testing.T) {
	cfg := mechConfig(2, 4, 2)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sh, err := e.shard("")
	if err != nil {
		t.Fatal(err)
	}

	if _, err := sh.ingest(report(0, 0, 1), cfg, &e.c, nil); err != nil {
		t.Fatal(err)
	}
	jump := 1000
	jobs, err := sh.ingest(report(0, jump, 2), cfg, &e.c, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Only the first catch-up close holds data; the rest are empty, and the
	// remainder of the gap is skipped wholesale.
	if len(jobs) != 1 {
		t.Fatalf("jobs = %d, want 1", len(jobs))
	}
	if got := e.c.windowsClosed.Load(); got != maxCatchUpCloses {
		t.Errorf("windowsClosed = %d, want %d", got, maxCatchUpCloses)
	}
	if e.c.windowsSkipped.Load() == 0 {
		t.Error("no windows skipped")
	}
	if jump < sh.start || jump >= sh.start+cfg.WindowSlots {
		t.Errorf("slot %d outside open window [%d,%d)", jump, sh.start, sh.start+cfg.WindowSlots)
	}
	// The ring must be clean around the landing slot: same participant can
	// fill the neighboring slots without phantom duplicates.
	for s := sh.start; s < sh.start+cfg.WindowSlots; s++ {
		if s == jump {
			continue
		}
		if _, err := sh.ingest(report(0, s, 3), cfg, &e.c, nil); err != nil {
			t.Fatalf("slot %d after fast-forward: %v", s, err)
		}
	}
}

// TestEnqueueDropOldest exercises the backpressure policy on an engine with
// one lane and no worker, so the lane cannot drain; evictions must reach the
// per-fleet breakdown and the observer, not just the global counter.
func TestEnqueueDropOldest(t *testing.T) {
	rec := &recordingObserver{}
	cfg := mechConfig(2, 4, 2)
	cfg.Obs = rec
	e := &Engine{
		cfg:    cfg,
		lanes:  []*lane{{q: make(chan job, 2)}},
		shards: make(map[string]*shard),
	}
	sh, err := e.shard("cab")
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < 4; seq++ {
		e.enqueue(job{sh: sh, seq: seq})
	}
	if got := e.c.windowsDropped.Load(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	first, second := <-sh.lane.q, <-sh.lane.q
	if first.seq != 2 || second.seq != 3 {
		t.Fatalf("queue kept seqs %d,%d, want 2,3 (newest)", first.seq, second.seq)
	}
	if got := e.Stats().WindowsDroppedByFleet["cab"]; got != 2 {
		t.Errorf("per-fleet drops = %d, want 2", got)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.dropped) != 2 || rec.dropped[0] != 0 || rec.dropped[1] != 1 {
		t.Errorf("observer saw drops %v, want [0 1]", rec.dropped)
	}
}

// recordingObserver captures observer callbacks for assertions.
type recordingObserver struct {
	mu        sync.Mutex
	processed []obs.Span
	dropped   []int // evicted window seqs
	failed    []int
}

func (r *recordingObserver) WindowProcessed(s obs.Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.processed = append(r.processed, s)
}

func (r *recordingObserver) WindowDropped(fleet string, seq, queueDepth int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dropped = append(r.dropped, seq)
}

func (r *recordingObserver) WindowFailed(fleet string, seq int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed = append(r.failed, seq)
}

func TestIngestValidation(t *testing.T) {
	cfg := mechConfig(2, 4, 2)
	cfg.MaxFleets = 1
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if err := e.Ingest(mcs.Report{Participant: 2, Slot: 0}); err == nil {
		t.Error("out-of-range participant accepted")
	}
	if err := e.Ingest(mcs.Report{Participant: 0, Slot: -1}); err == nil {
		t.Error("negative slot accepted")
	}
	if err := e.Ingest(mcs.Report{Fleet: "a", Participant: 0, Slot: 0}); err != nil {
		t.Errorf("first fleet rejected: %v", err)
	}
	if err := e.Ingest(mcs.Report{Fleet: "b", Participant: 0, Slot: 0}); !errors.Is(err, ErrTooManyFleets) {
		t.Errorf("second fleet err = %v, want ErrTooManyFleets", err)
	}
	if _, err := e.Latest("nope"); !errors.Is(err, ErrUnknownFleet) {
		t.Errorf("Latest err = %v, want ErrUnknownFleet", err)
	}
	// A known fleet with no completed window is a different condition than
	// an unknown fleet — and never a silent (nil, nil).
	if res, err := e.Latest("a"); !errors.Is(err, ErrNoResult) || res != nil {
		t.Errorf("Latest before first window = (%v, %v), want (nil, ErrNoResult)", res, err)
	}
	if _, err := e.Trace("nope"); !errors.Is(err, ErrUnknownFleet) {
		t.Errorf("Trace err = %v, want ErrUnknownFleet", err)
	}
	if spans, err := e.Trace("a"); err != nil || len(spans) != 0 {
		t.Errorf("Trace before first window = (%v, %v), want empty", spans, err)
	}
	if err := e.Flush("nope"); !errors.Is(err, ErrUnknownFleet) {
		t.Errorf("Flush err = %v, want ErrUnknownFleet", err)
	}

	st := e.Stats()
	if st.Fleets != 1 || st.Ingested != 1 || st.Rejected != 3 {
		t.Errorf("stats = fleets %d ingested %d rejected %d, want 1/1/3", st.Fleets, st.Ingested, st.Rejected)
	}

	e.Close()
	if err := e.Ingest(mcs.Report{Fleet: "a", Participant: 0, Slot: 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("ingest after close err = %v, want ErrClosed", err)
	}
	if err := e.Flush("a"); !errors.Is(err, ErrClosed) {
		t.Errorf("flush after close err = %v, want ErrClosed", err)
	}
	e.Close() // idempotent
}

func TestSubscribeCancelAndClose(t *testing.T) {
	e, err := New(mechConfig(2, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	ch1, cancel1 := e.Subscribe(1)
	cancel1()
	cancel1() // idempotent
	if _, open := <-ch1; open {
		t.Error("canceled subscription channel still open")
	}

	ch2, _ := e.Subscribe(1)
	e.Close()
	if _, open := <-ch2; open {
		t.Error("subscription survived engine close")
	}
	ch3, cancel3 := e.Subscribe(1)
	if _, open := <-ch3; open {
		t.Error("post-close subscription not closed")
	}
	cancel3()
}

// TestPublishDropsSlowSubscriber pins the non-blocking fan-out.
func TestPublishDropsSlowSubscriber(t *testing.T) {
	e, err := New(mechConfig(2, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ch, cancel := e.Subscribe(1)
	defer cancel()
	e.publish(&WindowResult{Seq: 0})
	e.publish(&WindowResult{Seq: 1})
	if got := e.c.subscriberDrops.Load(); got != 1 {
		t.Errorf("subscriberDrops = %d, want 1", got)
	}
	if r := <-ch; r.Seq != 0 {
		t.Errorf("delivered seq %d, want 0", r.Seq)
	}
}

// TestEngineProcessesWindows runs the full engine — ingest through worker
// pool to subscription — on a fleet small enough for CI, checking results
// arrive in order with sane contents and the second window warm-starts.
func TestEngineProcessesWindows(t *testing.T) {
	const (
		n = 24
		w = 60
		h = 20
	)
	rec := &recordingObserver{}
	cfg := mechConfig(n, w, h)
	cfg.Obs = rec
	fleet, res := fixture(t, n, w+2*h+1, 0.1, 0.1)

	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	results, cancel := e.Subscribe(8)
	defer cancel()

	streamFixture(t, e, "cab", fleet, res)

	var got []*WindowResult
	deadline := time.After(2 * time.Minute)
	for len(got) < 2 {
		select {
		case r := <-results:
			got = append(got, r)
		case <-deadline:
			t.Fatalf("timed out with %d results", len(got))
		}
	}

	for i, r := range got {
		if r.Fleet != "cab" {
			t.Errorf("result %d fleet = %q", i, r.Fleet)
		}
		if r.Seq != i || r.StartSlot != i*h || r.EndSlot != i*h+w {
			t.Errorf("result %d = seq %d [%d,%d), want seq %d [%d,%d)",
				i, r.Seq, r.StartSlot, r.EndSlot, i, i*h, i*h+w)
		}
		if r.Observed == 0 || r.Output == nil {
			t.Errorf("result %d empty: observed %d", i, r.Observed)
		}
		if r.Flagged != len(r.Flags) {
			t.Errorf("result %d flagged %d != len(flags) %d", i, r.Flagged, len(r.Flags))
		}
	}
	if got[0].WarmStarted {
		t.Error("first window claims a warm start")
	}
	if !got[1].WarmStarted {
		t.Error("second window did not warm-start")
	}

	latest, err := e.Latest("cab")
	if err != nil || latest == nil {
		t.Fatalf("Latest: %v", err)
	}
	if latest.Seq < 1 {
		t.Errorf("latest seq = %d, want >= 1", latest.Seq)
	}
	st := e.Stats()
	if st.WarmStarts < 1 || st.ColdStarts < 1 {
		t.Errorf("warm/cold = %d/%d, want >= 1 each", st.WarmStarts, st.ColdStarts)
	}
	if st.PhaseLatency["run"].Count < 2 {
		t.Errorf("run histogram count = %d, want >= 2", st.PhaseLatency["run"].Count)
	}
	if fleets := e.Fleets(); len(fleets) != 1 || fleets[0] != "cab" {
		t.Errorf("fleets = %v", fleets)
	}

	// Every processed window must leave a trace span — in the fleet's ring
	// (newest first) and at the observer — carrying the per-phase split.
	spans, err := e.Trace("cab")
	if err != nil || len(spans) < 2 {
		t.Fatalf("Trace = %d spans, err %v; want >= 2", len(spans), err)
	}
	if spans[0].Seq <= spans[1].Seq {
		t.Errorf("spans not newest-first: seqs %d, %d", spans[0].Seq, spans[1].Seq)
	}
	for _, s := range spans {
		if s.Fleet != "cab" || s.EndSlot-s.StartSlot != w {
			t.Errorf("span = %+v", s)
		}
		if s.RunMS <= 0 || s.QueueWaitMS < 0 || s.DetectMS <= 0 || s.CorrectMS <= 0 || s.CheckMS <= 0 {
			t.Errorf("span durations = %+v", s)
		}
		if s.Sweeps <= 0 || s.Iterations <= 0 {
			t.Errorf("span loop stats = %+v", s)
		}
		if s.CompletedAt.IsZero() {
			t.Errorf("span missing completion stamp: %+v", s)
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.processed) < 2 {
		t.Errorf("observer saw %d processed windows, want >= 2", len(rec.processed))
	}
	if len(rec.dropped) != 0 || len(rec.failed) != 0 {
		t.Errorf("observer saw drops %v / failures %v on a healthy run", rec.dropped, rec.failed)
	}
	if got[1].Sweeps <= 0 {
		t.Errorf("warm window sweeps = %d, want > 0", got[1].Sweeps)
	}
}

// TestFlushDispatchesPartialWindow checks Flush closes a window that would
// otherwise wait forever for its far edge.
func TestFlushDispatchesPartialWindow(t *testing.T) {
	const (
		n = 24
		w = 60
		h = 20
	)
	cfg := mechConfig(n, w, h)
	fleet, res := fixture(t, n, w/2, 0.1, 0.1)

	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	results, cancel := e.Subscribe(2)
	defer cancel()

	streamFixture(t, e, "", fleet, res)
	if err := e.Flush(""); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-results:
		if r.StartSlot != 0 || r.EndSlot != w {
			t.Errorf("flushed window [%d,%d), want [0,%d)", r.StartSlot, r.EndSlot, w)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("flushed window never processed")
	}
}

// fixture generates a corrupted synthetic fleet (mirrors the core tests).
func fixture(t testing.TB, n, slots int, alpha, beta float64) (*trace.Fleet, *corrupt.Result) {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.Participants = n
	cfg.Slots = slots
	fleet, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := corrupt.DefaultPlan()
	plan.MissingRatio = alpha
	plan.FaultyRatio = beta
	res, err := corrupt.Apply(plan, fleet.X, fleet.Y)
	if err != nil {
		t.Fatal(err)
	}
	return fleet, res
}

// fixtureReports turns the observed cells of a corrupted fleet into
// slot-ordered reports, as the transport would deliver them.
func fixtureReports(fleetID string, fleet *trace.Fleet, res *corrupt.Result) []mcs.Report {
	n, slots := res.SX.Dims()
	var reports []mcs.Report
	for s := 0; s < slots; s++ {
		for i := 0; i < n; i++ {
			if res.Existence.At(i, s) == 0 {
				continue
			}
			reports = append(reports, mcs.Report{
				Fleet:       fleetID,
				Participant: i,
				Slot:        s,
				X:           res.SX.At(i, s),
				Y:           res.SY.At(i, s),
				VX:          fleet.VX.At(i, s),
				VY:          fleet.VY.At(i, s),
			})
		}
	}
	return reports
}

// streamFixture feeds every observed cell of a corrupted fleet into the
// engine in slot order.
func streamFixture(t testing.TB, e *Engine, fleetID string, fleet *trace.Fleet, res *corrupt.Result) {
	t.Helper()
	for _, r := range fixtureReports(fleetID, fleet, res) {
		if err := e.Ingest(r); err != nil {
			t.Fatalf("ingest participant %d slot %d: %v", r.Participant, r.Slot, err)
		}
	}
}
