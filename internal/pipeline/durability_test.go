package pipeline

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"itscs/internal/mcs"
)

// fakeLog is an in-memory ReportLog for wiring tests.
type fakeLog struct {
	mu      sync.Mutex
	records []mcs.Report
	syncs   int
	fail    error // next AppendBatch returns this
}

func (f *fakeLog) AppendBatch(rs []mcs.Report) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail != nil {
		err := f.fail
		f.fail = nil
		return err
	}
	f.records = append(f.records, rs...)
	return nil
}

func (f *fakeLog) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncs++
	return nil
}

func (f *fakeLog) AppendedIndex() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return uint64(len(f.records))
}

func (f *fakeLog) len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.records)
}

func TestIngestRejectsNonFinite(t *testing.T) {
	e, err := New(mechConfig(2, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	bad := []mcs.Report{
		{Participant: 0, Slot: 0, X: math.NaN()},
		{Participant: 0, Slot: 0, Y: math.Inf(1)},
		{Participant: 1, Slot: 1, VX: math.Inf(-1)},
		{Participant: 1, Slot: 1, VY: math.NaN()},
	}
	for i, r := range bad {
		if err := e.Ingest(r); !errors.Is(err, mcs.ErrNonFinite) {
			t.Errorf("report %d: err = %v, want ErrNonFinite", i, err)
		}
	}
	// The same cells are still free: rejection must not have touched a ring.
	if err := e.Ingest(mcs.Report{Participant: 0, Slot: 0, X: 1}); err != nil {
		t.Errorf("finite report after rejection: %v", err)
	}
	st := e.Stats()
	if st.NonFinite != uint64(len(bad)) || st.Rejected != uint64(len(bad)) || st.Ingested != 1 {
		t.Errorf("stats = non_finite %d rejected %d ingested %d, want %d/%d/1",
			st.NonFinite, st.Rejected, st.Ingested, len(bad), len(bad))
	}
}

// TestCloseFlushesPartialWindows pins the graceful-shutdown contract: reports
// accepted into a window that has not yet closed must still be detected on
// Close rather than silently discarded.
func TestCloseFlushesPartialWindows(t *testing.T) {
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
	results, cancel := e.Subscribe(4)
	defer cancel()
	streamFixture(t, e, "cab", fleet, res)

	e.Close() // drains: the half-full window must be flushed and processed

	select {
	case r, ok := <-results:
		if !ok {
			t.Fatal("no result before subscription closed")
		}
		if r.StartSlot != 0 || r.EndSlot != w || r.Observed == 0 {
			t.Errorf("flushed window = [%d,%d) observed %d", r.StartSlot, r.EndSlot, r.Observed)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("partial window never processed")
	}
	if st := e.Stats(); st.WindowsProcessed < 1 {
		t.Errorf("windows processed = %d, want >= 1", st.WindowsProcessed)
	}
}

func TestIngestWritesAheadToLog(t *testing.T) {
	log := &fakeLog{}
	cfg := mechConfig(2, 4, 2)
	cfg.Log = log
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	if err := e.Ingest(mcs.Report{Participant: 0, Slot: 0, X: 1}); err != nil {
		t.Fatal(err)
	}
	// A duplicate is rejected by the shard but still logged first: the log
	// saw it before the shard ruled, and replaying it is harmless.
	if err := e.Ingest(mcs.Report{Participant: 0, Slot: 0, X: 2}); !errors.Is(err, mcs.ErrDuplicateReport) {
		t.Fatalf("duplicate err = %v", err)
	}
	if log.len() != 2 {
		t.Fatalf("log holds %d records, want 2 (write-ahead includes rejected)", log.len())
	}
	// Reports rejected before the shard is involved never reach the log.
	if err := e.Ingest(mcs.Report{Participant: 9, Slot: 0}); err == nil || log.len() != 2 {
		t.Fatalf("out-of-range report logged (err %v, %d records)", err, log.len())
	}
	if err := e.Ingest(mcs.Report{Participant: 1, Slot: 0, X: math.NaN()}); err == nil || log.len() != 2 {
		t.Fatalf("non-finite report logged (err %v, %d records)", err, log.len())
	}

	// An append failure refuses the report: not durable, not acked.
	wantErr := errors.New("disk full")
	log.mu.Lock()
	log.fail = wantErr
	log.mu.Unlock()
	if err := e.Ingest(mcs.Report{Participant: 1, Slot: 1, X: 3}); !errors.Is(err, wantErr) {
		t.Fatalf("append failure err = %v, want %v", err, wantErr)
	}
	// The refused report must not have reached the ring either: the same
	// cell accepts a fresh report.
	if err := e.Ingest(mcs.Report{Participant: 1, Slot: 1, X: 4}); err != nil {
		t.Fatalf("cell poisoned by refused report: %v", err)
	}

	// Replay must not re-append.
	before := log.len()
	if err := e.Replay(mcs.Report{Participant: 1, Slot: 2, X: 5}); err != nil {
		t.Fatal(err)
	}
	if log.len() != before {
		t.Error("replay re-appended to the log")
	}
	if st := e.Stats(); st.Replayed != 1 {
		t.Errorf("replayed = %d, want 1", st.Replayed)
	}
}

func TestOnWindowCloseHook(t *testing.T) {
	var calls []uint64
	cfg := mechConfig(2, 4, 2)
	cfg.OnWindowClose = func(total uint64) { calls = append(calls, total) }
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	if err := e.Ingest(mcs.Report{Participant: 0, Slot: 0, X: 1}); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 0 {
		t.Fatalf("hook fired with no window closed: %v", calls)
	}
	// Slot 4 passes the far edge of [0,4): one close, even though the
	// window held data and the close dispatched a job.
	if err := e.Ingest(mcs.Report{Participant: 0, Slot: 4, X: 2}); err != nil {
		t.Fatal(err)
	}
	// Slot 12 fast-forwards: several windows close at once, one call.
	if err := e.Ingest(mcs.Report{Participant: 0, Slot: 12, X: 3}); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 || calls[0] != 1 || calls[1] <= calls[0] {
		t.Fatalf("hook calls = %v, want [1, >1]", calls)
	}
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	log := &fakeLog{}
	cfg := mechConfig(3, 6, 2)
	cfg.Log = log
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Two fleets, one of them slid past its first window.
	for s := 0; s < 7; s++ {
		if err := e.Ingest(mcs.Report{Fleet: "a", Participant: 0, Slot: s, X: float64(100 + s)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Ingest(mcs.Report{Fleet: "b", Participant: 1, Slot: 3, X: 7}); err != nil {
		t.Fatal(err)
	}

	ck, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ck.LogIndex != 8 {
		t.Errorf("checkpoint log index = %d, want 8", ck.LogIndex)
	}
	if log.syncs == 0 {
		t.Error("checkpoint did not sync the log")
	}
	if len(ck.Shards) != 2 {
		t.Fatalf("checkpoint shards = %d, want 2", len(ck.Shards))
	}

	r, err := New(mechConfig(3, 6, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Restore(ck); err != nil {
		t.Fatal(err)
	}
	// Fleet a slid to start=2: a slot-1 report is late, slot 6 (held in the
	// ring) is a duplicate, and a fresh slot is accepted — the restored
	// stream state is indistinguishable from the original's.
	if err := r.Ingest(mcs.Report{Fleet: "a", Participant: 0, Slot: 1, X: 1}); !errors.Is(err, ErrLateReport) {
		t.Errorf("slot 1 err = %v, want ErrLateReport", err)
	}
	if err := r.Ingest(mcs.Report{Fleet: "a", Participant: 0, Slot: 6, X: 1}); !errors.Is(err, mcs.ErrDuplicateReport) {
		t.Errorf("slot 6 err = %v, want ErrDuplicateReport", err)
	}
	if err := r.Ingest(mcs.Report{Fleet: "a", Participant: 1, Slot: 7, X: 1}); err != nil {
		t.Errorf("fresh slot rejected: %v", err)
	}
	if err := r.Ingest(mcs.Report{Fleet: "b", Participant: 1, Slot: 3, X: 1}); !errors.Is(err, mcs.ErrDuplicateReport) {
		t.Errorf("fleet b duplicate err = %v, want ErrDuplicateReport", err)
	}
}

func TestRestoreRejectsMismatch(t *testing.T) {
	e, err := New(mechConfig(3, 6, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ck, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	// Shape mismatch.
	other, err := New(mechConfig(4, 6, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := other.Restore(ck); !errors.Is(err, ErrNotRestorable) {
		t.Errorf("shape mismatch err = %v, want ErrNotRestorable", err)
	}

	// Engine already has live shards.
	used, err := New(mechConfig(3, 6, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer used.Close()
	if err := used.Ingest(mcs.Report{Participant: 0, Slot: 0, X: 1}); err != nil {
		t.Fatal(err)
	}
	full, err := e.Checkpoint() // empty checkpoint restores fine, so use any
	if err != nil {
		t.Fatal(err)
	}
	if err := used.Restore(full); !errors.Is(err, ErrNotRestorable) {
		t.Errorf("non-fresh engine err = %v, want ErrNotRestorable", err)
	}

	// Closed engine.
	closed, err := New(mechConfig(3, 6, 2))
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	if err := closed.Restore(ck); !errors.Is(err, ErrClosed) {
		t.Errorf("closed engine err = %v, want ErrClosed", err)
	}
}
