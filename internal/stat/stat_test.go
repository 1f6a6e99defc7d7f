package stat

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMedianOdd(t *testing.T) {
	m, err := MedianInPlace([]float64{3, 1, 2})
	if err != nil || m != 2 {
		t.Fatalf("median = %v, err = %v", m, err)
	}
}

func TestMedianEven(t *testing.T) {
	m, err := MedianInPlace([]float64{4, 1, 3, 2})
	if err != nil || m != 2.5 {
		t.Fatalf("median = %v, err = %v", m, err)
	}
}

func TestMedianSingle(t *testing.T) {
	m, err := MedianInPlace([]float64{42})
	if err != nil || m != 42 {
		t.Fatalf("median = %v, err = %v", m, err)
	}
}

func TestMedianEmpty(t *testing.T) {
	if _, err := MedianInPlace(nil); err == nil {
		t.Fatal("want error for empty input")
	}
}

func TestMedianWithDuplicates(t *testing.T) {
	m, err := MedianInPlace([]float64{2, 2, 2, 2})
	if err != nil || m != 2 {
		t.Fatalf("median = %v", m)
	}
	m, err = MedianInPlace([]float64{1, 2, 2, 3, 3})
	if err != nil || m != 2 {
		t.Fatalf("median = %v", m)
	}
}

// Property: MedianInPlace agrees with the sort-based definition.
func TestPropertyMedianMatchesSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 100
		}
		got, err := MedianInPlace(vals)
		if err != nil {
			return false
		}
		sorted := make([]float64, n)
		copy(sorted, vals)
		sort.Float64s(sorted)
		var want float64
		if n%2 == 1 {
			want = sorted[n/2]
		} else {
			want = (sorted[n/2-1] + sorted[n/2]) / 2
		}
		return math.Abs(got-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		got, err := Quantile(vals, c.q)
		if err != nil || math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Quantile(%v) = %v, want %v (err %v)", c.q, got, c.want, err)
		}
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Fatal("want error for empty input")
	}
	if _, err := Quantile(vals, 1.5); err == nil {
		t.Fatal("want error for out-of-range q")
	}
	one, err := Quantile([]float64{7}, 0.3)
	if err != nil || one != 7 {
		t.Fatalf("single-element quantile = %v", one)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	got, err := Quantile([]float64{0, 10}, 0.25)
	if err != nil || math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("interpolated quantile = %v, want 2.5", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed must produce identical streams")
		}
	}
}

func TestRNGChildIndependence(t *testing.T) {
	root := NewRNG(1)
	c1 := root.Child("trace")
	c2 := root.Child("corrupt")
	same := 0
	for i := 0; i < 50; i++ {
		if c1.Int63() == c2.Int63() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("children look correlated: %d/50 equal draws", same)
	}
	// Same label must reproduce the same stream.
	d1 := NewRNG(1).Child("trace")
	d2 := NewRNG(1).Child("trace")
	for i := 0; i < 20; i++ {
		if d1.Int63() != d2.Int63() {
			t.Fatal("same child label must reproduce the stream")
		}
	}
}

func TestRNGHelpers(t *testing.T) {
	g := NewRNG(5)
	for i := 0; i < 100; i++ {
		u := g.Uniform(10, 20)
		if u < 10 || u >= 20 {
			t.Fatalf("Uniform out of range: %v", u)
		}
		s := g.Sign()
		if s != 1 && s != -1 {
			t.Fatalf("Sign = %v", s)
		}
		if n := g.Intn(7); n < 0 || n >= 7 {
			t.Fatalf("Intn out of range: %d", n)
		}
	}
	if g.Int63() < 0 {
		t.Fatal("Int63 must be non-negative")
	}
	trueCount := 0
	for i := 0; i < 1000; i++ {
		if g.Bool(0.3) {
			trueCount++
		}
	}
	if trueCount < 200 || trueCount > 400 {
		t.Fatalf("Bool(0.3) fired %d/1000 times", trueCount)
	}
	if len(g.Perm(5)) != 5 {
		t.Fatal("Perm length wrong")
	}
}
