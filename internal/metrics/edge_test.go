package metrics

import (
	"math"
	"strings"
	"testing"

	"itscs/internal/mat"
)

// TestRatesAreTotalFunctions pins the zero-denominator contract for every
// one-sided confusion: each rate resolves to its finite vacuous value,
// never NaN, so per-window rates can be averaged without filtering.
func TestRatesAreTotalFunctions(t *testing.T) {
	cases := []struct {
		name          string
		c             Confusion
		p, r, f1, fpr float64
	}{
		{"empty", Confusion{}, 1, 1, 1, 0},
		{"only TN", Confusion{TN: 5}, 1, 1, 1, 0},
		{"only TP", Confusion{TP: 4}, 1, 1, 1, 0},
		{"only FP", Confusion{FP: 3}, 0, 1, 0, 1},
		{"only FN", Confusion{FN: 2}, 1, 0, 0, 0},
	}
	for _, tc := range cases {
		got := [...]float64{tc.c.Precision(), tc.c.Recall(), tc.c.F1(), tc.c.FalsePositiveRate()}
		want := [...]float64{tc.p, tc.r, tc.f1, tc.fpr}
		names := [...]string{"precision", "recall", "F1", "FPR"}
		for i := range got {
			if math.IsNaN(got[i]) {
				t.Errorf("%s: %s is NaN", tc.name, names[i])
				continue
			}
			if got[i] != want[i] {
				t.Errorf("%s: %s = %v, want %v", tc.name, names[i], got[i], want[i])
			}
		}
	}
}

// TestCompareAllMissingMask checks an all-zero existence matrix: no cell
// carries data to judge, so the confusion is empty and the rates are the
// vacuous ones — not NaN — even though truth says every cell is faulty.
func TestCompareAllMissingMask(t *testing.T) {
	d := mat.Ones(3, 4)
	f := mat.Ones(3, 4)
	e := mat.New(3, 4)
	c, err := Compare(d, f, e)
	if err != nil {
		t.Fatal(err)
	}
	if c != (Confusion{}) {
		t.Fatalf("confusion over all-missing mask = %+v, want zero", c)
	}
	if c.Precision() != 1 || c.Recall() != 1 || c.F1() != 1 || c.FalsePositiveRate() != 0 {
		t.Errorf("vacuous rates = P %v R %v F1 %v FPR %v, want 1/1/1/0",
			c.Precision(), c.Recall(), c.F1(), c.FalsePositiveRate())
	}
}

// TestMAEAllMissingMask checks the opposite denominator: with every cell
// missing, every cell qualifies for Eq. (29).
func TestMAEAllMissingMask(t *testing.T) {
	x := mat.New(1, 2)
	y := mat.New(1, 2)
	xh, _ := mat.NewFromRows([][]float64{{3, 0}})
	yh, _ := mat.NewFromRows([][]float64{{4, 0}})
	e := mat.New(1, 2)
	d := mat.New(1, 2)
	got, err := MAE(x, y, xh, yh, e, d)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2.5 { // errors 5 and 0 over both cells
		t.Fatalf("MAE = %v, want 2.5", got)
	}
}

// TestMAEZeroSizeMatrices pins the documented 0-not-NaN result for empty
// shapes.
func TestMAEZeroSizeMatrices(t *testing.T) {
	for _, z := range []*mat.Dense{mat.New(0, 3), mat.New(3, 0)} {
		if got, err := MAE(z, z, z, z, z, z); err != nil || got != 0 {
			t.Errorf("MAE on empty shape = %v, err %v, want 0, nil", got, err)
		}
	}
}

// TestMAENamesFirstBadShape pins which operand a shape error names when
// two are wrong: the checks run in argument order, so Y before D.
func TestMAENamesFirstBadShape(t *testing.T) {
	ok, bad := mat.New(2, 2), mat.New(2, 3)
	for i := 0; i < 50; i++ {
		_, err := MAE(ok, bad, ok, ok, ok, bad)
		if err == nil || !strings.HasPrefix(err.Error(), "metrics: Y ") {
			t.Fatalf("call %d: err = %v, want it to name Y", i, err)
		}
	}
}
