package metrics

import (
	"testing"
	"time"
)

// TestHistogramBucketsUseFullDuration pins each bucket's bound as an
// inclusive upper limit on the whole duration: a sub-millisecond remainder
// past a bound lands in the next bucket, and a duration exactly on a bound
// stays in it.
func TestHistogramBucketsUseFullDuration(t *testing.T) {
	cases := []struct {
		bounds []int64
		d      time.Duration
		want   int64
	}{
		{HistBuckets, 1900 * time.Microsecond, 2},
		{AgeBuckets, 50900 * time.Microsecond, 100},
		{HistBuckets, time.Millisecond, 1},
	}
	for _, c := range cases {
		h := NewHistogram(c.bounds)
		h.Observe(c.d)
		if got := h.Snapshot().Buckets; len(got) != 1 || got[c.want] != 1 {
			t.Errorf("Observe(%v): buckets %v, want one count in le=%d", c.d, got, c.want)
		}
	}
}
