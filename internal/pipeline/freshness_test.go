package pipeline

import (
	"testing"
	"time"

	"itscs/internal/fault"
	"itscs/internal/mcs"
	"itscs/internal/metrics"
)

// freshCfg is a small engine configuration driven by a virtual clock, so
// freshness tests control every timestamp the histograms observe.
func freshCfg(clock fault.Clock) Config {
	cfg := DefaultConfig()
	cfg.Participants = 3
	cfg.WindowSlots = 4
	cfg.HopSlots = 4
	cfg.Workers = 1
	cfg.Clock = clock
	return cfg
}

// stamped builds a report stamped at the clock's current instant, the way
// the serve daemon's ingest door would.
func stamped(clock fault.Clock, fleet string, p, slot int) mcs.Report {
	r := mcs.Report{Fleet: fleet, Participant: p, Slot: slot, X: 1, Y: 2}
	mcs.StampIngest(&r, clock.Now(), mcs.OriginDirect)
	return r
}

// drain closes the engine and collects every published result.
func drain(t *testing.T, e *Engine, ch <-chan *WindowResult) []*WindowResult {
	t.Helper()
	e.Close()
	var out []*WindowResult
	deadline := time.After(30 * time.Second)
	for {
		select {
		case res, ok := <-ch:
			if !ok {
				return out
			}
			out = append(out, res)
		case <-deadline:
			t.Fatal("timed out draining results")
		}
	}
}

// TestFreshnessAccounting streams a corrupted synthetic fleet through one
// full detection window on a virtual clock, advancing 100ms per slot, and
// checks the whole freshness surface: the stamped/unstamped partition, the
// age-at-close and ingest-to-result histograms (engine-wide and per fleet),
// the per-fleet lag fields, and the end-to-end trace chain addressable by
// the propagated trace ID.
func TestFreshnessAccounting(t *testing.T) {
	const (
		n = 16
		w = 60
	)
	clock := fault.NewVirtualClock(time.Unix(1_700_000_000, 0))
	cfg := freshCfg(clock)
	cfg.Participants = n
	cfg.WindowSlots = w
	cfg.HopSlots = w
	cfg.TraceDepth = 2048 // retain every trace; eviction is tested in obs
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := e.Subscribe(16)
	defer cancel()

	fleet, res := fixture(t, n, w+1, 0.1, 0.1)
	reports := fixtureReports("cab", fleet, res)
	// Stamp everything except participant n-1's reports (an unstamped
	// legacy feed), advancing the clock one tick per slot so every stamp is
	// distinct and ages are exactly computable.
	const tick = 100 * time.Millisecond
	var (
		first        mcs.Report // first stamped slot-0 report
		slot         = 0
		stampedSent  uint64
		stampedInWin uint64
		wantSumMS    float64
	)
	closeUS := int64(w) * tick.Milliseconds() // close instant, ms after T
	for i := range reports {
		r := &reports[i]
		if r.Slot != slot {
			clock.Advance(time.Duration(r.Slot-slot) * tick)
			slot = r.Slot
		}
		if r.Participant == n-1 {
			continue
		}
		mcs.StampIngest(r, clock.Now(), mcs.OriginDirect)
		stampedSent++
		if r.Slot < w {
			stampedInWin++
			wantSumMS += float64(closeUS - int64(r.Slot)*tick.Milliseconds())
		}
		if first.TraceID == 0 && r.Slot == 0 {
			first = *r
		}
	}
	for _, r := range reports {
		if err := e.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	results := drain(t, e, ch)
	if len(results) == 0 {
		t.Fatal("no window results")
	}

	st := e.Stats()
	if st.ReportsStamped != stampedSent {
		t.Errorf("stamped = %d, want %d", st.ReportsStamped, stampedSent)
	}
	if st.ReportsStamped+st.ReportsUnstamped != st.Ingested {
		t.Errorf("stamped %d + unstamped %d != ingested %d", st.ReportsStamped, st.ReportsUnstamped, st.Ingested)
	}
	if st.ReportsUnstamped == 0 {
		t.Error("no unstamped reports counted; partition untested")
	}
	// Every stamped report is observed exactly once: window [0,w) cells at
	// its close, the slot-w stragglers when Close flushes the partial
	// window at the same (frozen) instant, aged 0.
	if st.AgeAtClose.Count != stampedSent {
		t.Errorf("age_at_close count = %d, want %d", st.AgeAtClose.Count, stampedSent)
	}
	if st.AgeAtClose.SumMS < wantSumMS-1 || st.AgeAtClose.SumMS > wantSumMS+1 {
		t.Errorf("age_at_close sum = %.0fms, want %.0fms", st.AgeAtClose.SumMS, wantSumMS)
	}
	// Ingest→result is observed per processed window; the full window must
	// have processed, and the clock does not move during detection, so each
	// observed latency equals the age at close.
	if st.IngestToResult.Count < stampedInWin {
		t.Errorf("ingest_to_result count = %d, want >= %d", st.IngestToResult.Count, stampedInWin)
	}

	ff, ok := st.Freshness["cab"]
	if !ok {
		t.Fatal("no per-fleet freshness for cab")
	}
	if ff.AgeAtClose.Count != st.AgeAtClose.Count {
		t.Errorf("fleet age_at_close count = %d, want %d", ff.AgeAtClose.Count, st.AgeAtClose.Count)
	}
	// Close flushed the partial [w,2w) window, so the watermark sits at 2w.
	if ff.WatermarkSlot != 2*w {
		t.Errorf("watermark slot = %d, want %d", ff.WatermarkSlot, 2*w)
	}
	if lag := ff.NextSeq - 1 - ff.LatestSeq; lag < 0 {
		t.Errorf("window lag = %d, want >= 0", lag)
	}
	sum := SummarizeFreshness(ff.AgeAtClose)
	if sum.Count != ff.AgeAtClose.Count || sum.P50MS <= 0 || sum.P99MS < sum.P50MS {
		t.Errorf("freshness summary = %+v, want monotone positive quantiles", sum)
	}

	// The first report's trace chains ingest → window_close → detect →
	// publish (no WAL in this engine) and is addressable by its trace ID.
	tr, ok := e.FindTrace("cab", first.TraceID)
	if !ok {
		t.Fatalf("trace %016x not retained", first.TraceID)
	}
	if tr.WindowSeq != 0 || tr.Origin != "direct" {
		t.Errorf("trace seq %d origin %q, want 0 direct", tr.WindowSeq, tr.Origin)
	}
	wantStages := []string{"ingest", "window_close", "detect", "publish"}
	if len(tr.Stages) != len(wantStages) {
		t.Fatalf("trace stages = %+v, want %v", tr.Stages, wantStages)
	}
	for i, s := range tr.Stages {
		if s.Name != wantStages[i] {
			t.Errorf("stage %d = %q, want %q", i, s.Name, wantStages[i])
		}
		if i > 0 && s.AtUnixMicro < tr.Stages[i-1].AtUnixMicro {
			t.Errorf("stage %q at %d precedes %q", s.Name, s.AtUnixMicro, tr.Stages[i-1].Name)
		}
	}
	// The window span carries the exemplar trace ID, linking the two planes.
	spans, err := e.Trace("cab")
	if err != nil {
		t.Fatal(err)
	}
	linked := false
	for _, sp := range spans {
		if sp.Seq == 0 && sp.TraceID != "" {
			linked = true
		}
	}
	if !linked {
		t.Error("window 0's span carries no trace ID exemplar")
	}
}

// TestFreshnessReplayNoRestamp pins the replay contract: recovery replay
// re-delivers reports with their original stamps, so the stamped/unstamped
// partition is conserved and ages are measured against first contact — a
// replayed hour-old report ages an hour, it is not re-stamped young.
func TestFreshnessReplayNoRestamp(t *testing.T) {
	clock := fault.NewVirtualClock(time.Unix(1_700_000_000, 0))

	// Stamp the reports "an hour ago", as a prior life's door would have.
	var reps []mcs.Report
	for s := 0; s < 5; s++ {
		reps = append(reps, stamped(clock, "cab", 0, s))
	}
	unstamped := mcs.Report{Fleet: "cab", Participant: 1, Slot: 1, X: 9, Y: 9}
	clock.Advance(time.Hour)

	// A fresh engine — the next life — replays the log tail.
	e, err := New(freshCfg(clock))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := e.Subscribe(16)
	defer cancel()
	// The unstamped record replays before slot 4 arrives; slot 4 would close
	// window [0,4) and turn slot 1 late.
	for _, r := range reps[:4] {
		if err := e.Replay(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Replay(unstamped); err != nil {
		t.Fatal(err)
	}
	if err := e.Replay(reps[4]); err != nil {
		t.Fatal(err)
	}
	drain(t, e, ch)

	st := e.Stats()
	if st.Replayed != 6 {
		t.Errorf("replayed = %d, want 6", st.Replayed)
	}
	if st.ReportsStamped != 5 || st.ReportsUnstamped != 1 {
		t.Errorf("partition after replay = %d stamped + %d unstamped, want 5 + 1",
			st.ReportsStamped, st.ReportsUnstamped)
	}
	if st.ReportsStamped+st.ReportsUnstamped != st.Ingested {
		t.Errorf("stamped %d + unstamped %d != ingested %d — partition broken by replay",
			st.ReportsStamped, st.ReportsUnstamped, st.Ingested)
	}
	// Every replayed report must age ≥ 1h: a re-stamp would register hot.
	if st.AgeAtClose.Count != 5 {
		t.Fatalf("age_at_close count = %d, want 5", st.AgeAtClose.Count)
	}
	hourMS := float64(time.Hour / time.Millisecond)
	if st.AgeAtClose.SumMS < 5*hourMS {
		t.Errorf("age_at_close sum = %.0fms, want >= %.0fms — replay re-stamped ages young",
			st.AgeAtClose.SumMS, 5*hourMS)
	}
	if p50 := metrics.Quantile(st.AgeAtClose, metrics.AgeBuckets, 0.5); p50 < 30*60*1000 {
		t.Errorf("p50 age = %.0fms, want >= 30min — replay re-stamped", p50)
	}

	// The replayed trace keeps its original ingest instant and records the
	// wal_commit hop as a replay.
	tr, ok := e.FindTrace("cab", reps[0].TraceID)
	if !ok {
		t.Fatalf("replayed trace %016x not retained", reps[0].TraceID)
	}
	if tr.Stages[0].Name != "ingest" || tr.Stages[0].AtUnixMicro != reps[0].IngestUnixMicro {
		t.Errorf("ingest stage = %+v, want the original stamp %d", tr.Stages[0], reps[0].IngestUnixMicro)
	}
	foundReplay := false
	for _, s := range tr.Stages {
		if s.Name == "wal_commit" && s.Detail == "replay" {
			foundReplay = true
		}
	}
	if !foundReplay {
		t.Errorf("trace stages %+v missing wal_commit(replay)", tr.Stages)
	}
}

// TestFreshnessConservedAcrossCheckpointRestore runs ingest → checkpoint →
// crash → restore → replay-tail and checks the invariants the sim harness
// asserts per life: the partition holds in the second life and replaying
// records already covered by the checkpoint neither double-counts stamps
// nor re-observes ages.
func TestFreshnessConservedAcrossCheckpointRestore(t *testing.T) {
	clock := fault.NewVirtualClock(time.Unix(1_700_000_000, 0))
	e1, err := New(freshCfg(clock))
	if err != nil {
		t.Fatal(err)
	}
	var reps []mcs.Report
	for s := 0; s < 3; s++ {
		reps = append(reps, stamped(clock, "cab", 0, s))
		clock.Advance(time.Second)
	}
	for _, r := range reps {
		if err := e1.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	ck, err := e1.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	e1.Abort() // crash

	// Life 2 restores the checkpoint, then the log tail replays everything
	// from index 0 — the records below the horizon must reject as
	// duplicates without touching the freshness partition.
	e2, err := New(freshCfg(clock))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := e2.Subscribe(16)
	defer cancel()
	if err := e2.Restore(ck); err != nil {
		t.Fatal(err)
	}
	for _, r := range reps {
		_ = e2.Replay(r) // duplicates of checkpointed cells
	}
	clock.Advance(time.Minute)
	more := stamped(clock, "cab", 0, 4) // closes window [0,4)
	if err := e2.Replay(more); err != nil {
		t.Fatal(err)
	}
	drain(t, e2, ch)

	st := e2.Stats()
	if st.ReportsStamped+st.ReportsUnstamped != st.Ingested {
		t.Errorf("life 2: stamped %d + unstamped %d != ingested %d",
			st.ReportsStamped, st.ReportsUnstamped, st.Ingested)
	}
	if st.ReportsStamped != 1 {
		t.Errorf("life 2 stamped = %d, want 1 (duplicates must not re-count)", st.ReportsStamped)
	}
	// The restored ring preserved the first life's stamps: the close
	// happened at T+63s, the checkpointed reports were stamped at T+0, T+1
	// and T+2, so their ages are 63+62+61 = 186s; the flushed slot-4 report
	// (stamped at the close instant) ages 0.
	if st.AgeAtClose.Count != 4 {
		t.Fatalf("age_at_close count = %d, want 4", st.AgeAtClose.Count)
	}
	if st.AgeAtClose.SumMS < 185_999 || st.AgeAtClose.SumMS > 186_001 {
		t.Errorf("age_at_close sum = %.0fms, want 186000ms (checkpointed stamps preserved)",
			st.AgeAtClose.SumMS)
	}
}

// TestFreshnessCountsOverlappingWindowsOnce pins the freshness histograms
// to one observation per stamped report when windows overlap (hop <
// window): a report is aged by the close of the first window that holds
// it, not again by every later window that still covers its slot.
func TestFreshnessCountsOverlappingWindowsOnce(t *testing.T) {
	const (
		n     = 3
		slots = 12
		tick  = 100 * time.Millisecond
	)
	clock := fault.NewVirtualClock(time.Unix(1_700_000_000, 0))
	cfg := freshCfg(clock)
	cfg.HopSlots = 2
	cfg.Core.Detect.Window = 3 // fits the 4-slot window, so every window runs
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := e.Subscribe(16)
	defer cancel()
	for s := 0; s < slots; s++ {
		for p := 0; p < n; p++ {
			if err := e.Ingest(stamped(clock, "cab", p, s)); err != nil {
				t.Fatal(err)
			}
		}
		if s < slots-1 {
			clock.Advance(tick)
		}
	}
	results := drain(t, e, ch)
	if len(results) != 5 {
		t.Fatalf("published %d windows, want 5", len(results))
	}

	st := e.Stats()
	if st.ReportsStamped != n*slots {
		t.Fatalf("stamped = %d, want %d", st.ReportsStamped, n*slots)
	}
	// Window [0,4) closes when slot 4 arrives (at 4 ticks), [2,6) at 6,
	// [4,8) at 8, [6,10) at 10, and Close flushes [8,12) at 11. Each slot
	// is aged at the first of those closes after it: per participant
	// (4+3+2+1) + (2+1) + (2+1) + (2+1) + (1+0) = 20 ticks.
	wantSumMS := float64(n * 20 * tick.Milliseconds())
	ff := st.Freshness["cab"]
	for name, h := range map[string]HistogramSnapshot{
		"engine age_at_close":     st.AgeAtClose,
		"fleet age_at_close":      ff.AgeAtClose,
		"engine ingest_to_result": st.IngestToResult,
		"fleet ingest_to_result":  ff.IngestToResult,
	} {
		if h.Count != st.ReportsStamped {
			t.Errorf("%s count = %d, want %d (one per stamped report)", name, h.Count, st.ReportsStamped)
		}
	}
	for name, h := range map[string]HistogramSnapshot{
		"engine": st.AgeAtClose, "fleet": ff.AgeAtClose,
	} {
		if h.SumMS < wantSumMS-1 || h.SumMS > wantSumMS+1 {
			t.Errorf("%s age_at_close sum = %.0fms, want %.0fms", name, h.SumMS, wantSumMS)
		}
	}
}
