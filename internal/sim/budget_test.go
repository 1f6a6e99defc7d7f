package sim

import (
	"testing"

	"itscs/internal/pipeline"
)

// maxSweepsPerWindow bounds the mean ASD sweeps a stream-shape window
// spends in CORRECT (both axes, every outer iteration). On the workload
// below, plain steepest-descent steps spent 3,222.2 a window, nearly all
// of them runs cut at MaxIters; the scaled (ScaledASD) step spends 150.9.
const maxSweepsPerWindow = 400

// TestStreamSweepBudget streams a seeded workload of the benchmark's
// stream shape (16 participants, 48-slot windows, 16-slot hop) through
// one engine and gates on the mean sweeps per window. The count is
// deterministic, so the bound needs no noise margin: a solver regression
// that multiplies the sweeps fails here, whatever the host.
func TestStreamSweepBudget(t *testing.T) {
	sc := Scenario{Seed: 17, Participants: 16, WindowSlots: 48, HopSlots: 16, Slots: 48 + 8*16}
	w, err := BuildWorkload("fleet-00", sc)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := pipeline.New(EngineConfig(sc))
	if err != nil {
		t.Fatal(err)
	}
	results, cancel := engine.Subscribe(64)
	defer cancel()
	for _, r := range w.Reports {
		if err := engine.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	engine.Close()
	windows, sweeps := 0, 0
	for res := range results {
		windows++
		sweeps += res.Sweeps
	}
	if windows != 9 {
		t.Fatalf("%d windows, want 9", windows)
	}
	mean := float64(sweeps) / float64(windows)
	t.Logf("%d sweeps over %d windows: %.1f a window (bound %d)", sweeps, windows, mean, maxSweepsPerWindow)
	if mean > maxSweepsPerWindow {
		t.Fatalf("%.1f ASD sweeps a window, want ≤ %d", mean, maxSweepsPerWindow)
	}
}
