package metrics

import (
	"math"
	"testing"

	"itscs/internal/mat"
)

func TestCompareCounts(t *testing.T) {
	d, _ := mat.NewFromRows([][]float64{{1, 1, 0, 0}})
	f, _ := mat.NewFromRows([][]float64{{1, 0, 1, 0}})
	c, err := Compare(d, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.TP != 1 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Fatalf("confusion = %+v", c)
	}
	if c.Precision() != 0.5 || c.Recall() != 0.5 {
		t.Fatalf("P=%v R=%v", c.Precision(), c.Recall())
	}
	if math.Abs(c.F1()-0.5) > 1e-12 {
		t.Fatalf("F1 = %v", c.F1())
	}
	if c.FalsePositiveRate() != 0.5 {
		t.Fatalf("FPR = %v", c.FalsePositiveRate())
	}
}

func TestCompareSkipsMissing(t *testing.T) {
	d, _ := mat.NewFromRows([][]float64{{1, 1}})
	f, _ := mat.NewFromRows([][]float64{{0, 1}})
	e, _ := mat.NewFromRows([][]float64{{0, 1}})
	c, err := Compare(d, f, e)
	if err != nil {
		t.Fatal(err)
	}
	if c.TP != 1 || c.FP != 0 || c.FN != 0 || c.TN != 0 {
		t.Fatalf("missing cell not skipped: %+v", c)
	}
}

func TestCompareShapeErrors(t *testing.T) {
	d := mat.New(2, 2)
	if _, err := Compare(d, mat.New(1, 1), nil); err == nil {
		t.Fatal("want truth shape error")
	}
	if _, err := Compare(d, mat.New(2, 2), mat.New(1, 1)); err == nil {
		t.Fatal("want existence shape error")
	}
}

func TestDegenerateRates(t *testing.T) {
	var c Confusion
	if c.Precision() != 1 || c.Recall() != 1 {
		t.Fatal("empty confusion should report perfect rates")
	}
	if c.F1() != 1 {
		t.Fatalf("F1 of perfect rates = %v", c.F1())
	}
	if c.FalsePositiveRate() != 0 {
		t.Fatal("FPR with no clean cells must be 0")
	}
	zero := Confusion{FP: 1, FN: 1}
	if zero.F1() != 0 {
		t.Fatalf("all-wrong F1 = %v", zero.F1())
	}
}

func TestMAE(t *testing.T) {
	x, _ := mat.NewFromRows([][]float64{{0, 0, 0}})
	y, _ := mat.NewFromRows([][]float64{{0, 0, 0}})
	xh, _ := mat.NewFromRows([][]float64{{3, 5, 100}})
	yh, _ := mat.NewFromRows([][]float64{{4, 12, 100}})
	e, _ := mat.NewFromRows([][]float64{{0, 1, 1}}) // cell 0 missing
	d, _ := mat.NewFromRows([][]float64{{0, 1, 0}}) // cell 1 detected
	// Cells 0 and 1 qualify: errors 5 and 13 → mean 9. Cell 2 excluded.
	got, err := MAE(x, y, xh, yh, e, d)
	if err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Fatalf("MAE = %v, want 9", got)
	}
}

func TestMAENoQualifyingCells(t *testing.T) {
	m := mat.Ones(2, 2)
	e := mat.Ones(2, 2)
	d := mat.New(2, 2)
	got, err := MAE(m, m, m, m, e, d)
	if err != nil || got != 0 {
		t.Fatalf("MAE = %v, err = %v", got, err)
	}
}

func TestMAEShapeError(t *testing.T) {
	m := mat.Ones(2, 2)
	if _, err := MAE(m, mat.New(1, 1), m, m, m, m); err == nil {
		t.Fatal("want shape error")
	}
}
