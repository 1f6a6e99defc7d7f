package mat

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
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
// bit-identical results at every GOMAXPROCS: the row-block split never
// reorders any per-element accumulation.
func TestParallelKernelsBitIdenticalToSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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

		runtime.GOMAXPROCS(1)
		seqMulT, err := a.MulT(bt)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			runtime.GOMAXPROCS(workers)
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

// rowBlocks records the [lo, hi) blocks ParallelRows hands to fn, sorted
// by lo.
func rowBlocks(n, flopsPerRow int) [][2]int {
	var mu sync.Mutex
	var blocks [][2]int
	ParallelRows(n, flopsPerRow, func(lo, hi int) {
		mu.Lock()
		blocks = append(blocks, [2]int{lo, hi})
		mu.Unlock()
	})
	sort.Slice(blocks, func(i, j int) bool { return blocks[i][0] < blocks[j][0] })
	return blocks
}

// TestParallelRowsBudget pins the split to GOMAXPROCS: one inline call at
// GOMAXPROCS 1, one contiguous block per worker above the flop cutoff, and
// one inline call below the cutoff at any GOMAXPROCS.
func TestParallelRowsBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 100
	if got := rowBlocks(n, minParallelFlops); len(got) != 1 || got[0] != [2]int{0, n} {
		t.Fatalf("GOMAXPROCS 1: blocks %v, want one call on [0, %d)", got, n)
	}

	runtime.GOMAXPROCS(3)
	got := rowBlocks(n, minParallelFlops)
	if len(got) != 3 {
		t.Fatalf("GOMAXPROCS 3: %d blocks %v, want 3", len(got), got)
	}
	next := 0
	for _, b := range got {
		if b[0] != next || b[1] <= b[0] {
			t.Fatalf("GOMAXPROCS 3: blocks %v are not contiguous and disjoint", got)
		}
		next = b[1]
	}
	if next != n {
		t.Fatalf("GOMAXPROCS 3: blocks %v cover [0, %d), want [0, %d)", got, next, n)
	}

	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		if got := rowBlocks(n, minParallelFlops/n-1); len(got) != 1 || got[0] != [2]int{0, n} {
			t.Fatalf("GOMAXPROCS %d below the cutoff: blocks %v, want one call on [0, %d)", procs, got, n)
		}
	}
}
