package mat

import (
	"math/rand"
	"runtime"
	"testing"
)

// sparseRandom returns an r×c matrix with ~20% exact zeros so the kernels'
// zero-skip branches are exercised by the parity tests.
func sparseRandom(r, c int, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	m := New(r, c)
	for i := range m.data {
		if rng.Intn(5) == 0 {
			continue
		}
		m.data[i] = rng.NormFloat64()
	}
	return m
}

// TestParallelKernelsBitIdenticalToSequential verifies that MulT produces
// bit-identical results at every parallelism level: the row-block split
// never reorders any per-element accumulation.
func TestParallelKernelsBitIdenticalToSequential(t *testing.T) {
	defer SetParallelism(SetParallelism(1))
	shapes := []struct{ m, k, n int }{
		{1, 1, 1},
		{1, 7, 5},   // single-row edge
		{5, 7, 1},   // single-column edge
		{1, 300, 1}, // both edges, above the flop cutoff per row
		{3, 2, 4},
		{64, 33, 17},
		{158, 240, 40}, // paper scale
		{130, 3, 129},
	}
	for _, sh := range shapes {
		a := sparseRandom(sh.m, sh.k, int64(sh.m*1000+sh.k))
		bt := sparseRandom(sh.n, sh.k, int64(sh.n*1000+sh.k+1))

		SetParallelism(1)
		seqMulT, err := a.MulT(bt)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			SetParallelism(workers)
			parMulT, err := a.MulT(bt)
			if err != nil {
				t.Fatal(err)
			}
			if !parMulT.Equal(seqMulT, 0) {
				t.Fatalf("MulT %dx%dx%d: %d-worker result differs from sequential", sh.m, sh.k, sh.n, workers)
			}
		}
	}
}

// TestSetParallelism covers the knob semantics: previous value returned,
// non-positive resets to GOMAXPROCS.
func TestSetParallelism(t *testing.T) {
	orig := Parallelism()
	defer SetParallelism(orig)
	if prev := SetParallelism(3); prev != orig {
		t.Fatalf("SetParallelism returned %d, want previous value %d", prev, orig)
	}
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d, want 3", got)
	}
	SetParallelism(0)
	if got := Parallelism(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Parallelism() after reset = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}
