package mat

import (
	"runtime"
	"sync"
)

// minParallelFlops is the approximate amount of arithmetic below which the
// row-block driver stays sequential: at roughly 1–2 µs of goroutine
// fork/join overhead per block and ~1 flop/ns per core, splitting less
// than ~64k flops costs more than it saves. Paper-scale factor products
// (158×240×rank) sit comfortably above the cutoff; the small per-sweep
// vector ops stay below it and run inline.
const minParallelFlops = 1 << 16

// ParallelRows partitions rows [0, n) into contiguous blocks and invokes
// fn(lo, hi) for each, concurrently when the estimated total work
// (n·flopsPerRow) justifies the goroutine overhead and GOMAXPROCS allows
// it. The worker budget is runtime.GOMAXPROCS: GOMAXPROCS=1 forces every
// kernel onto the caller's goroutine, which also makes the hot paths
// allocation-free (the fork/join bookkeeping is the only allocation the
// parallel path performs). fn must be safe to run concurrently on
// disjoint row ranges. The partition is deterministic but the execution
// order is not; callers needing bit-identical results across budgets must
// ensure each row's computation is independent of the others (all kernels
// in this package preserve their sequential per-element accumulation
// order, so their results are bit-identical at any GOMAXPROCS).
func ParallelRows(n, flopsPerRow int, fn func(lo, hi int)) {
	if !ParallelWorthwhile(n, flopsPerRow) {
		fn(0, n)
		return
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	block := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += block {
		hi := min(lo+block, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ParallelWorthwhile reports whether ParallelRows would split n rows of
// flopsPerRow work each across goroutines. Kernels check it *before*
// building their closure so the sequential hot path stays allocation-free
// (a func literal that captures variables is a heap allocation even if the
// work ends up running inline). The size test comes first, so a problem
// below the cutoff never reads GOMAXPROCS, which takes the scheduler lock.
func ParallelWorthwhile(n, flopsPerRow int) bool {
	return n > 1 && n*flopsPerRow >= minParallelFlops && runtime.GOMAXPROCS(0) > 1
}
