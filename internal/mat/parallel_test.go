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

// TestParallelKernelsBitIdenticalToSequential verifies that Mul, MulT and
// TMul produce bit-identical results at every parallelism level: the
// row-block split never reorders any per-element accumulation.
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
		bb := sparseRandom(sh.k, sh.n, int64(sh.k*1000+sh.n))
		bt := sparseRandom(sh.n, sh.k, int64(sh.n*1000+sh.k+1))
		at := sparseRandom(sh.k, sh.m, int64(sh.k*1000+sh.m+2))

		SetParallelism(1)
		seqMul, err := a.Mul(bb)
		if err != nil {
			t.Fatal(err)
		}
		seqMulT, err := a.MulT(bt)
		if err != nil {
			t.Fatal(err)
		}
		seqTMul, err := at.TMul(bb)
		if err != nil {
			t.Fatal(err)
		}

		for _, workers := range []int{2, 3, 8} {
			SetParallelism(workers)
			parMul, err := a.Mul(bb)
			if err != nil {
				t.Fatal(err)
			}
			if !parMul.Equal(seqMul, 0) {
				t.Fatalf("Mul %dx%dx%d: %d-worker result differs from sequential", sh.m, sh.k, sh.n, workers)
			}
			parMulT, err := a.MulT(bt)
			if err != nil {
				t.Fatal(err)
			}
			if !parMulT.Equal(seqMulT, 0) {
				t.Fatalf("MulT %dx%dx%d: %d-worker result differs from sequential", sh.m, sh.k, sh.n, workers)
			}
			parTMul, err := at.TMul(bb)
			if err != nil {
				t.Fatal(err)
			}
			if !parTMul.Equal(seqTMul, 0) {
				t.Fatalf("TMul %dx%dx%d: %d-worker result differs from sequential", sh.m, sh.k, sh.n, workers)
			}
		}
	}
}

// TestIntoKernelsMatchAllocatingForms verifies every *Into variant against
// its allocating counterpart, including reuse of a dirty destination.
func TestIntoKernelsMatchAllocatingForms(t *testing.T) {
	a := sparseRandom(13, 21, 1)
	bb := sparseRandom(21, 9, 2)
	bt := sparseRandom(9, 21, 3)
	same := sparseRandom(13, 21, 4)

	mulWant, _ := a.Mul(bb)
	dst := Filled(13, 9, 42) // dirty destination must be fully overwritten
	if err := a.MulInto(dst, bb); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(mulWant, 0) {
		t.Fatal("MulInto disagrees with Mul")
	}

	mulTWant, _ := a.MulT(bt)
	dst = Filled(13, 9, 42)
	if err := a.MulTInto(dst, bt); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(mulTWant, 0) {
		t.Fatal("MulTInto disagrees with MulT")
	}

	tMulWant, _ := a.TMul(same)
	dst = Filled(21, 21, 42)
	if err := a.TMulInto(dst, same); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(tMulWant, 0) {
		t.Fatal("TMulInto disagrees with TMul")
	}

	hadWant, _ := a.Hadamard(same)
	dst = Filled(13, 21, 42)
	if err := a.HadamardInto(dst, same); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(hadWant, 0) {
		t.Fatal("HadamardInto disagrees with Hadamard")
	}

	// Element-wise Into ops allow aliasing the destination with an operand.
	aliased := a.Clone()
	if err := aliased.HadamardInto(aliased, same); err != nil {
		t.Fatal(err)
	}
	if !aliased.Equal(hadWant, 0) {
		t.Fatal("aliased HadamardInto disagrees with Hadamard")
	}
}

// TestIntoKernelsRejectBadShapesAndAliases covers the error paths of the
// non-allocating kernels.
func TestIntoKernelsRejectBadShapesAndAliases(t *testing.T) {
	a := New(4, 6)
	b := New(6, 3)
	if err := a.MulTInto(New(4, 4), b); err == nil {
		t.Fatal("MulTInto with mismatched inner dims must fail")
	}
	c := New(4, 6)
	if err := a.MulTInto(New(3, 3), c); err == nil {
		t.Fatal("MulTInto with wrong dst shape must fail")
	}
	if err := a.MulTInto(a, c); err == nil {
		t.Fatal("MulTInto with aliased dst must fail")
	}
	if err := a.TMulInto(New(2, 2), c); err == nil {
		t.Fatal("TMulInto with wrong dst shape must fail")
	}
	if err := a.TMulInto(a, c); err == nil {
		t.Fatal("TMulInto with aliased dst must fail")
	}
	if err := a.HadamardInto(New(4, 6), b); err == nil {
		t.Fatal("HadamardInto with mismatched operands must fail")
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
