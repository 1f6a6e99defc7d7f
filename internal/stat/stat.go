// Package stat provides the small statistical toolkit used by the I(TS,CS)
// pipeline: order statistics (the in-place median DETECT's filters use,
// quantiles) and a deterministic splittable random source so every
// experiment in the repository is reproducible from a single seed.
package stat

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by order statistics on empty inputs.
var ErrEmpty = errors.New("stat: empty input")

// MedianInPlace returns the median of vals, reordering vals as a side
// effect. Use it on scratch buffers in hot loops to avoid allocation.
func MedianInPlace(vals []float64) (float64, error) {
	n := len(vals)
	if n == 0 {
		return 0, ErrEmpty
	}
	mid := n / 2
	if n%2 == 1 {
		return quickSelect(vals, mid), nil
	}
	hi := quickSelect(vals, mid)
	// After selecting index mid, elements left of mid are <= vals[mid];
	// the lower middle is the max of that prefix.
	lo := vals[0]
	for _, v := range vals[1:mid] {
		if v > lo {
			lo = v
		}
	}
	return (lo + hi) / 2, nil
}

// quickSelect returns the k-th smallest element (0-based), partially
// reordering buf. Median-of-three pivoting keeps it linear on the
// near-sorted windows produced by location time series.
func quickSelect(buf []float64, k int) float64 {
	lo, hi := 0, len(buf)-1
	for lo < hi {
		p := partition(buf, lo, hi)
		switch {
		case k == p:
			return buf[k]
		case k < p:
			hi = p - 1
		default:
			lo = p + 1
		}
	}
	return buf[k]
}

func partition(buf []float64, lo, hi int) int {
	mid := lo + (hi-lo)/2
	// Median-of-three: order lo, mid, hi then use mid as pivot.
	if buf[mid] < buf[lo] {
		buf[mid], buf[lo] = buf[lo], buf[mid]
	}
	if buf[hi] < buf[lo] {
		buf[hi], buf[lo] = buf[lo], buf[hi]
	}
	if buf[hi] < buf[mid] {
		buf[hi], buf[mid] = buf[mid], buf[hi]
	}
	pivot := buf[mid]
	buf[mid], buf[hi-0] = buf[hi-0], buf[mid]
	store := lo
	for i := lo; i < hi; i++ {
		if buf[i] < pivot {
			buf[i], buf[store] = buf[store], buf[i]
			store++
		}
	}
	buf[store], buf[hi] = buf[hi], buf[store]
	return store
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of vals using linear
// interpolation between order statistics (type-7, the numpy default).
func Quantile(vals []float64, q float64) (float64, error) {
	n := len(vals)
	if n == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stat: quantile %v outside [0,1]", q)
	}
	buf := make([]float64, n)
	copy(buf, vals)
	sort.Float64s(buf)
	if n == 1 {
		return buf[0], nil
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return buf[lo], nil
	}
	frac := pos - float64(lo)
	return buf[lo]*(1-frac) + buf[hi]*frac, nil
}
