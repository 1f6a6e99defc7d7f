package mat

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelism is the number of worker goroutines the row-block driver may
// use. It defaults to GOMAXPROCS at package init and is read atomically so
// tests and tools can retune it concurrently with running kernels.
var parallelism atomic.Int64

func init() {
	parallelism.Store(int64(runtime.GOMAXPROCS(0)))
}

// SetParallelism sets the worker-goroutine budget for the parallel kernels
// and returns the previous value. n <= 0 resets to GOMAXPROCS. A budget of
// 1 forces every kernel onto the caller's goroutine, which also makes the
// hot paths allocation-free (the fork/join bookkeeping is the only
// allocation the parallel path performs).
func SetParallelism(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return int(parallelism.Swap(int64(n)))
}

// Parallelism reports the current worker-goroutine budget.
func Parallelism() int { return int(parallelism.Load()) }

// minParallelFlops is the approximate amount of arithmetic below which the
// row-block driver stays sequential: at roughly 1–2 µs of goroutine
// fork/join overhead per block and ~1 flop/ns per core, splitting less
// than ~64k flops costs more than it saves. Paper-scale factor products
// (158×240×rank) sit comfortably above the cutoff; the small per-sweep
// vector ops stay below it and run inline.
const minParallelFlops = 1 << 16

// ParallelRows partitions rows [0, n) into contiguous blocks and invokes
// fn(lo, hi) for each, concurrently when the estimated total work
// (n·flopsPerRow) justifies the goroutine overhead and the parallelism
// budget allows it. fn must be safe to run concurrently on disjoint row
// ranges. The partition is deterministic but the execution order is not;
// callers needing bit-identical results across budgets must ensure each
// row's computation is independent of the others (all kernels in this
// package preserve their sequential per-element accumulation order, so
// their results are bit-identical at any parallelism level).
func ParallelRows(n, flopsPerRow int, fn func(lo, hi int)) {
	if !ParallelWorthwhile(n, flopsPerRow) {
		fn(0, n)
		return
	}
	workers := Parallelism()
	if workers > n {
		workers = n
	}
	block := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += block {
		hi := lo + block
		if hi > n {
			hi = n
		}
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
// work ends up running inline).
func ParallelWorthwhile(n, flopsPerRow int) bool {
	return Parallelism() > 1 && n > 1 && n*flopsPerRow >= minParallelFlops
}
