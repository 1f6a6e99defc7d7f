package itscs_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"itscs"
	"itscs/synthetic"
)

// smallCorrupted builds a small corrupted synthetic workload.
func smallCorrupted(t *testing.T, alpha, beta float64) (*synthetic.Fleet, *synthetic.Corrupted) {
	t.Helper()
	cfg := synthetic.DefaultFleetConfig()
	cfg.Participants = 20
	cfg.Slots = 80
	fleet, err := synthetic.GenerateFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cor, err := fleet.Corrupt(synthetic.Corruption{
		MissingRatio: alpha,
		FaultyRatio:  beta,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fleet, cor
}

// prf computes precision and recall of res against truth.
func prf(res *itscs.Result, cor *synthetic.Corrupted) (precision, recall float64) {
	var tp, fp, fn int
	for i := range res.Faulty {
		for j := range res.Faulty[i] {
			if cor.TruthMissing[i][j] {
				continue
			}
			switch {
			case res.Faulty[i][j] && cor.TruthFaulty[i][j]:
				tp++
			case res.Faulty[i][j]:
				fp++
			case cor.TruthFaulty[i][j]:
				fn++
			}
		}
	}
	precision, recall = 1, 1
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	return precision, recall
}

func TestRunDetectsInjectedFaults(t *testing.T) {
	_, cor := smallCorrupted(t, 0.2, 0.2)
	res, err := itscs.Run(cor.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	p, r := prf(res, cor)
	if p < 0.9 || r < 0.9 {
		t.Fatalf("P=%.3f R=%.3f below floor", p, r)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d iterations", res.Iterations)
	}
}

func TestRunRepairsTrajectories(t *testing.T) {
	fleet, cor := smallCorrupted(t, 0.2, 0.1)
	res, err := itscs.Run(cor.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	// Repaired output: observed clean cells keep their values, missing and
	// faulty cells are replaced by finite reconstructions.
	var repairedErr, repairedCnt float64
	for i := range res.X {
		for j := range res.X[i] {
			if math.IsNaN(res.X[i][j]) || math.IsNaN(res.Y[i][j]) {
				t.Fatalf("repaired output contains NaN at (%d,%d)", i, j)
			}
			if cor.TruthMissing[i][j] {
				if !res.Missing[i][j] {
					t.Fatalf("missing cell (%d,%d) not reported", i, j)
				}
				dx := res.X[i][j] - fleet.X[i][j]
				dy := res.Y[i][j] - fleet.Y[i][j]
				repairedErr += math.Hypot(dx, dy)
				repairedCnt++
			} else if !res.Faulty[i][j] {
				if res.X[i][j] != cor.Dataset.X[i][j] {
					t.Fatalf("clean observed cell (%d,%d) was modified", i, j)
				}
			}
		}
	}
	if repairedCnt == 0 {
		t.Fatal("no missing cells exercised")
	}
	if mae := repairedErr / repairedCnt; mae > 600 {
		t.Fatalf("repair MAE = %.1f m", mae)
	}
}

func TestRunVariants(t *testing.T) {
	_, cor := smallCorrupted(t, 0.2, 0.2)
	for _, v := range []itscs.Variant{itscs.VariantFull, itscs.VariantNoVelocity, itscs.VariantPlainCS} {
		res, err := itscs.Run(cor.Dataset, itscs.WithVariant(v))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		p, r := prf(res, cor)
		if p < 0.85 || r < 0.85 {
			t.Fatalf("%v: P=%.3f R=%.3f below floor", v, p, r)
		}
	}
}

func TestRunOptionValidation(t *testing.T) {
	_, cor := smallCorrupted(t, 0.1, 0.1)
	bad := [][]itscs.Option{
		{itscs.WithSlotDuration(0)},
		{itscs.WithVariant(itscs.Variant(99))},
		{itscs.WithDetectionWindow(4)},
		{itscs.WithXi(-1)},
		{itscs.WithToleranceFloor(-5)},
		{itscs.WithRank(-1)},
		{itscs.WithLambdas(-1, 0)},
		{itscs.WithCheckThresholds(500, 100)},
		{itscs.WithMaxIterations(0)},
	}
	for i, opts := range bad {
		if _, err := itscs.Run(cor.Dataset, opts...); err == nil {
			t.Fatalf("options %d should be rejected", i)
		}
	}
}

func TestRunDatasetValidation(t *testing.T) {
	cases := []itscs.Dataset{
		{},
		{X: [][]float64{{}}, Y: [][]float64{{}}, VX: [][]float64{{}}, VY: [][]float64{{}}},
		{X: [][]float64{{1, 2}}, Y: [][]float64{{1, 2}, {3, 4}}, VX: [][]float64{{0, 0}}, VY: [][]float64{{0, 0}}},
		{X: [][]float64{{1, 2}}, Y: [][]float64{{1}}, VX: [][]float64{{0, 0}}, VY: [][]float64{{0, 0}}},
	}
	for i, ds := range cases {
		if _, err := itscs.Run(ds); err == nil {
			t.Fatalf("dataset %d should be rejected", i)
		}
	}
}

// TestRunNamesFirstBadInput pins which input a shape error names when two
// are bad: the checks run in a fixed order, so Y is named before VX.
func TestRunNamesFirstBadInput(t *testing.T) {
	ok := [][]float64{{1, 2}, {3, 4}}
	cases := map[string]itscs.Dataset{
		"rows":  {X: ok, Y: ok[:1], VX: ok[:1], VY: ok},
		"slots": {X: ok, Y: [][]float64{{1, 2}, {3}}, VX: [][]float64{{1, 2}, {3}}, VY: ok},
	}
	for name, ds := range cases {
		for i := 0; i < 50; i++ {
			_, err := itscs.Run(ds)
			if err == nil || !strings.HasPrefix(err.Error(), "itscs: Y ") {
				t.Fatalf("%s, call %d: err = %v, want it to name Y", name, i, err)
			}
		}
	}
}

func TestRunCustomOptionsWork(t *testing.T) {
	_, cor := smallCorrupted(t, 0.1, 0.1)
	res, err := itscs.Run(cor.Dataset,
		itscs.WithSlotDuration(30*time.Second),
		itscs.WithDetectionWindow(7),
		itscs.WithXi(2.0),
		itscs.WithToleranceFloor(80),
		itscs.WithRank(12),
		itscs.WithLambdas(1e-6, 0.5),
		itscs.WithCheckThresholds(250, 900),
		itscs.WithMaxIterations(8),
	)
	if err != nil {
		t.Fatal(err)
	}
	p, r := prf(res, cor)
	if p < 0.85 || r < 0.85 {
		t.Fatalf("custom options degraded detection: P=%.3f R=%.3f", p, r)
	}
}

func TestVariantString(t *testing.T) {
	cases := map[itscs.Variant]string{
		itscs.VariantFull:       "I(TS,CS)",
		itscs.VariantNoVelocity: "I(TS,CS) without V",
		itscs.VariantPlainCS:    "I(TS,CS) without VT",
		itscs.Variant(9):        "Variant(9)",
	}
	for v, want := range cases {
		if v.String() != want {
			t.Fatalf("Variant.String() = %q, want %q", v.String(), want)
		}
	}
}

func TestMissingMarkedByNaNEitherAxis(t *testing.T) {
	// A NaN in just one coordinate must mark the whole cell missing.
	ds := itscs.Dataset{
		X:  [][]float64{{1, math.NaN(), 3, 4, 5, 6, 7, 8, 9, 10}},
		Y:  [][]float64{{1, 2, math.NaN(), 4, 5, 6, 7, 8, 9, 10}},
		VX: [][]float64{{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
		VY: [][]float64{{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
	}
	res, err := itscs.Run(ds, itscs.WithDetectionWindow(5), itscs.WithRank(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Missing[0][1] || !res.Missing[0][2] {
		t.Fatal("NaN in either axis must mark the cell missing")
	}
	if res.Missing[0][0] {
		t.Fatal("observed cell wrongly marked missing")
	}
}
