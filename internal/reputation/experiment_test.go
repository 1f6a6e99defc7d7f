package reputation_test

import (
	"testing"

	"itscs/internal/corrupt"
	"itscs/internal/mcs"
	"itscs/internal/pipeline"
	"itscs/internal/reputation"
	"itscs/internal/trace"
)

// rateBands is the per-participant fault-rate ladder of the quarantine
// experiment: 16 clean rows and 2 rows at each injected rate. A "persistent
// faulter" in the EXPERIMENTS.md sense is a row at rate ≥ 0.5.
var rateBands = []struct {
	rate float64
	rows int
}{
	{0.0, 16},
	{0.1, 2},
	{0.3, 2},
	{0.5, 2},
	{0.8, 2},
}

// TestQuarantineExperiment reproduces the EXPERIMENTS.md reputation table:
// per-participant fault rates injected with corrupt.ApplyParticipants are
// streamed through a ledger-gated engine across three seeds, and the final
// quarantine census is scored against the injected ground truth. The hard
// assertions are the table's headline: recall 1.0 on persistent faulters
// (rate ≥ 0.5) and precision 1.0 in the sense that no clean row (rate 0)
// is ever quarantined — or even reaches probation.
func TestQuarantineExperiment(t *testing.T) {
	const (
		n, w, h = 24, 60, 20
		slots   = 60 + 20*8
	)
	rates := map[int]float64{}
	row := 0
	rateOf := make([]float64, n)
	for _, band := range rateBands {
		for i := 0; i < band.rows; i++ {
			if band.rate > 0 {
				rates[row] = band.rate
			}
			rateOf[row] = band.rate
			row++
		}
	}
	if row != n {
		t.Fatalf("rate ladder covers %d rows, want %d", row, n)
	}

	type cell struct{ quarantined, total int }
	byRate := map[float64]*cell{}
	for _, band := range rateBands {
		byRate[band.rate] = &cell{}
	}
	var faulters, caught, cleanQuarantined int
	for seed := int64(1); seed <= 3; seed++ {
		tcfg := trace.DefaultConfig()
		tcfg.Participants = n
		tcfg.Slots = slots
		tcfg.Seed = seed
		gen, err := trace.Generate(tcfg)
		if err != nil {
			t.Fatal(err)
		}
		plan := corrupt.DefaultParticipantPlan()
		plan.MissingRatio = 0.1
		plan.Rates = rates
		plan.Seed = seed
		res, err := corrupt.ApplyParticipants(plan, gen.X, gen.Y)
		if err != nil {
			t.Fatal(err)
		}

		ledger, err := reputation.New(reputation.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := pipeline.DefaultConfig()
		cfg.Participants = n
		cfg.WindowSlots = w
		cfg.HopSlots = h
		cfg.Gate = ledger
		cfg.OnResult = ledger.Fold
		engine, err := pipeline.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < slots; s++ {
			for i := 0; i < n; i++ {
				if res.Existence.At(i, s) == 0 {
					continue
				}
				if err := engine.Ingest(mcs.Report{
					Fleet: "exp", Participant: i, Slot: s,
					X: res.SX.At(i, s), Y: res.SY.At(i, s),
					VX: gen.VX.At(i, s), VY: gen.VY.At(i, s),
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		engine.Close()

		fs, ok := ledger.Fleet("exp")
		if !ok || len(fs.Participants) != n {
			t.Fatalf("seed %d: fleet snapshot missing or short: %v", seed, ok)
		}
		for _, ps := range fs.Participants {
			rate := rateOf[ps.Participant]
			c := byRate[rate]
			c.total++
			if ps.State == "quarantined" {
				c.quarantined++
			}
			if rate >= 0.5 {
				faulters++
				if ps.State == "quarantined" {
					caught++
				}
			}
			if rate == 0 && (ps.State == "quarantined" || ps.State == "probation") {
				cleanQuarantined++
				t.Errorf("seed %d: clean participant %d reached %s (score %.3f, lower %.3f)",
					seed, ps.Participant, ps.State, ps.Score, ps.LowerBound)
			}
		}
	}

	t.Logf("quarantine census across 3 seeds (rate: quarantined/total):")
	for _, band := range rateBands {
		c := byRate[band.rate]
		t.Logf("  rate %.1f: %d/%d", band.rate, c.quarantined, c.total)
	}
	recall := float64(caught) / float64(faulters)
	t.Logf("persistent-faulter recall (rate >= 0.5): %d/%d = %.3f", caught, faulters, recall)
	t.Logf("clean rows quarantined or on probation: %d", cleanQuarantined)
	if caught != faulters {
		t.Errorf("recall on persistent faulters = %.3f, want 1.0", recall)
	}
}
