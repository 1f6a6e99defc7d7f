package motion

import (
	"math"
	"testing"
	"time"

	"itscs/internal/mat"
)

func TestAverageVelocity(t *testing.T) {
	v, _ := mat.NewFromRows([][]float64{
		{2, 4, 6},
		{1, 1, 1},
	})
	avg := AverageVelocity(v)
	want := [][]float64{
		{2, 3, 5},
		{1, 1, 1},
	}
	for i := range want {
		for j := range want[i] {
			if avg.At(i, j) != want[i][j] {
				t.Fatalf("avg(%d,%d) = %v, want %v", i, j, avg.At(i, j), want[i][j])
			}
		}
	}
}

func TestAverageVelocitySingleColumn(t *testing.T) {
	v, _ := mat.NewFromRows([][]float64{{7}})
	avg := AverageVelocity(v)
	if avg.At(0, 0) != 7 {
		t.Fatalf("single-column average = %v", avg.At(0, 0))
	}
}

func TestStability(t *testing.T) {
	x, _ := mat.NewFromRows([][]float64{
		{0, 10, 5},
		{1, 1, 4},
	})
	d := Stability(x)
	want := []float64{10, 5, 0, 3}
	if len(d) != len(want) {
		t.Fatalf("len = %d, want %d", len(d), len(want))
	}
	for i, w := range want {
		if d[i] != w {
			t.Fatalf("d[%d] = %v, want %v", i, d[i], w)
		}
	}
	if Stability(mat.New(3, 1)) != nil {
		t.Fatal("single-column matrix has no stability values")
	}
}

func TestVelocityStabilityExplainsMotion(t *testing.T) {
	// Positions move +30 m per slot with τ = 30 s and v = 1 m/s constant:
	// the velocity term should explain the motion exactly.
	x, _ := mat.NewFromRows([][]float64{{0, 30, 60, 90}})
	v := mat.Filled(1, 4, 1)
	avg := AverageVelocity(v)
	d, err := VelocityStability(x, avg, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i, val := range d {
		if math.Abs(val) > 1e-9 {
			t.Fatalf("residual[%d] = %v, want 0", i, val)
		}
	}
}

func TestVelocityStabilityResidual(t *testing.T) {
	x, _ := mat.NewFromRows([][]float64{{0, 40}})
	v := mat.Filled(1, 2, 1) // explains 30 m of the 40 m move
	d, err := VelocityStability(x, AverageVelocity(v), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d[0]-10) > 1e-9 {
		t.Fatalf("residual = %v, want 10", d[0])
	}
}

func TestVelocityStabilityShapeError(t *testing.T) {
	x := mat.New(2, 3)
	v := mat.New(2, 2)
	if _, err := VelocityStability(x, v, time.Second); err == nil {
		t.Fatal("want shape error")
	}
}

func TestVelocityStabilityShortMatrix(t *testing.T) {
	d, err := VelocityStability(mat.New(2, 1), mat.New(2, 1), time.Second)
	if err != nil || d != nil {
		t.Fatalf("short matrix should yield nil, got %v, %v", d, err)
	}
}
