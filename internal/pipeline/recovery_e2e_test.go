package pipeline

import (
	"testing"
	"time"

	"itscs/internal/mcs"
	"itscs/internal/wal"
)

// TestCrashRecoveryMatchesUninterrupted is the durability acceptance test:
// a fleet is streamed through a WAL-backed engine that is killed mid-stream
// (Abort: no flush, queue discarded), then a fresh engine is rebuilt from
// the newest checkpoint plus a log-tail replay and fed the rest of the
// stream. Every window's F1 must be identical to an uninterrupted run over
// the same reports, and recovery must replay exactly the records appended
// after the checkpoint.
func TestCrashRecoveryMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("streams several full-scale detection windows twice")
	}
	const (
		n     = 40
		w     = 120
		h     = 40
		slots = w + 3*h
	)
	fleet, res := fixture(t, n, slots, 0.15, 0.15)
	reports := fixtureReports("cab", fleet, res)

	// Cut points on the slot timeline: checkpoint after window 0 has closed
	// (slot 120) but before window 1 does (slot 160); crash before window 1
	// closes, so every window past the first is recovered from disk.
	idxCkpt, idxCrash := -1, -1
	for i, r := range reports {
		if idxCkpt < 0 && r.Slot >= 130 {
			idxCkpt = i
		}
		if idxCrash < 0 && r.Slot >= 150 {
			idxCrash = i
		}
	}
	if idxCkpt < 0 || idxCrash <= idxCkpt {
		t.Fatalf("bad cut points %d/%d", idxCkpt, idxCrash)
	}

	newEngine := func(log ReportLog) (*Engine, <-chan *WindowResult, func()) {
		cfg := mechConfig(n, w, h)
		cfg.Log = log
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		results, cancel := e.Subscribe(16)
		return e, results, cancel
	}
	// drain collects every buffered result after the engine has closed the
	// subscription channel.
	drain := func(results <-chan *WindowResult, into map[int]float64) {
		deadline := time.After(4 * time.Minute)
		for {
			select {
			case r, ok := <-results:
				if !ok {
					return
				}
				into[r.Seq] = windowF1(t, r.Output.Detection, res, r.StartSlot, r.EndSlot)
			case <-deadline:
				t.Fatal("timed out draining results")
			}
		}
	}

	// Uninterrupted baseline. Close flushes the final partial window, so
	// the recovered run must do the same to match window for window.
	base, baseResults, _ := newEngine(nil)
	for _, r := range reports {
		if err := base.Ingest(r); err != nil {
			t.Fatalf("baseline ingest slot %d: %v", r.Slot, err)
		}
	}
	base.Close()
	baseline := map[int]float64{}
	drain(baseResults, baseline)
	if len(baseline) < 3 {
		t.Fatalf("baseline produced %d windows, want >= 3", len(baseline))
	}

	// Phase A: durable engine, checkpoint mid-stream, then crash.
	dir := t.TempDir()
	log1, err := wal.Open(dir, wal.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e1, results1, _ := newEngine(log1)
	for _, r := range reports[:idxCkpt] {
		if err := e1.Ingest(r); err != nil {
			t.Fatalf("phase A ingest slot %d: %v", r.Slot, err)
		}
	}
	// Wait for window 0's result so its warm factors are in the shard (and
	// therefore in the checkpoint) — with one worker results are in order.
	recovered := map[int]float64{}
	select {
	case r := <-results1:
		recovered[r.Seq] = windowF1(t, r.Output.Detection, res, r.StartSlot, r.EndSlot)
	case <-time.After(4 * time.Minute):
		t.Fatal("window 0 never processed before checkpoint")
	}
	ck, err := e1.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ck.LogIndex != uint64(idxCkpt) {
		t.Fatalf("checkpoint log index = %d, want %d", ck.LogIndex, idxCkpt)
	}
	if _, err := wal.WriteCheckpoint(dir, ck); err != nil {
		t.Fatal(err)
	}
	for _, r := range reports[idxCkpt:idxCrash] {
		if err := e1.Ingest(r); err != nil {
			t.Fatalf("phase A ingest slot %d: %v", r.Slot, err)
		}
	}
	e1.Abort() // SIGKILL stand-in: no flush, queued windows discarded
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase B: recover from disk and stream the rest.
	log2, err := wal.Open(dir, wal.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	latest, skipped, err := wal.LatestCheckpoint(dir)
	if err != nil || skipped != 0 {
		t.Fatalf("latest checkpoint: %v (skipped %d)", err, skipped)
	}
	e2, results2, _ := newEngine(log2)
	if err := e2.Restore(latest); err != nil {
		t.Fatal(err)
	}
	replayed, err := log2.Replay(latest.LogIndex, func(_ uint64, r mcs.Report) error {
		if err := e2.Replay(r); err != nil {
			t.Fatalf("replay rejected slot %d: %v", r.Slot, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Recovery replays only the records appended after the last checkpoint.
	if want := uint64(idxCrash - idxCkpt); replayed != want {
		t.Fatalf("replayed %d records, want %d (log tail past checkpoint)", replayed, want)
	}
	if got := e2.Stats().Replayed; got != uint64(idxCrash-idxCkpt) {
		t.Fatalf("engine replayed counter = %d, want %d", got, idxCrash-idxCkpt)
	}
	for _, r := range reports[idxCrash:] {
		if err := e2.Ingest(r); err != nil {
			t.Fatalf("phase B ingest slot %d: %v", r.Slot, err)
		}
	}
	e2.Close()
	drain(results2, recovered)

	if len(recovered) != len(baseline) {
		t.Fatalf("recovered %d windows, baseline %d: %v vs %v",
			len(recovered), len(baseline), recovered, baseline)
	}
	for seq, want := range baseline {
		got, ok := recovered[seq]
		if !ok {
			t.Errorf("window seq %d missing after recovery", seq)
			continue
		}
		if got != want {
			t.Errorf("window seq %d: recovered F1 %.6f != uninterrupted F1 %.6f", seq, got, want)
		}
	}
}
