package metrics

import (
	"sync/atomic"
	"time"
)

// HistBuckets are the upper bounds (inclusive) of the latency histogram
// buckets in milliseconds, doubling from 1 ms; a final overflow bucket
// catches everything slower. Power-of-two bounds keep Observe cheap and the
// JSON rendering compact. Both the streaming pipeline (per-phase detection
// latency) and the WAL (fsync latency) instrument themselves with this one
// scheme, so /metrics exposes a single consistent bucket layout.
var HistBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768}

// AgeBuckets are the upper bounds (inclusive), in milliseconds, of the
// freshness histograms: report age at window close and ingest→result
// latency. Freshness spans a far wider range than phase latency — a report
// can legitimately sit most of a window length before its window closes,
// and recovery replay can surface hours-old records — so the scheme runs
// from 50 ms to 4 h rather than reusing HistBuckets.
var AgeBuckets = []int64{
	50, 100, 250, 500,
	1_000, 2_500, 5_000, 10_000, 30_000,
	60_000, 120_000, 300_000, 600_000, 1_800_000,
	3_600_000, 7_200_000, 14_400_000,
}

// Histogram is a latency histogram over an explicit millisecond bucket
// scheme, safe for concurrent use. A nil receiver ignores observations and
// snapshots empty, so optional instrumentation needs no call-site guards.
type Histogram struct {
	bounds []int64 // upper bounds in ms, ascending
	counts []atomic.Uint64
	sumNS  atomic.Int64
	n      atomic.Uint64
}

// NewHistogram returns a histogram over the given millisecond bounds,
// which must be ascending (HistBuckets or AgeBuckets). The slice is
// retained, not copied.
func NewHistogram(boundsMS []int64) *Histogram {
	return &Histogram{bounds: boundsMS, counts: make([]atomic.Uint64, len(boundsMS)+1)}
}

// Observe records one duration. Negative durations (clock skew between the
// stamping door and this node) clamp to zero rather than poisoning the sum.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	i := 0
	for ; i < len(h.bounds); i++ {
		if d <= time.Duration(h.bounds[i])*time.Millisecond {
			break
		}
	}
	h.counts[i].Add(1)
	h.sumNS.Add(int64(d))
	h.n.Add(1)
}

// HistogramSnapshot is a point-in-time copy of a latency histogram,
// expvar-style JSON friendly.
type HistogramSnapshot struct {
	// Count is the number of observations.
	Count uint64 `json:"count"`
	// SumMS is the total observed latency in milliseconds; a Prometheus
	// histogram exposition needs the exact sum alongside the mean.
	SumMS float64 `json:"sum_ms"`
	// MeanMS is the arithmetic-mean latency in milliseconds.
	MeanMS float64 `json:"mean_ms"`
	// Buckets maps each bucket's upper bound in milliseconds to its count;
	// the overflow bucket is keyed -1. Empty buckets are omitted.
	Buckets map[int64]uint64 `json:"buckets"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Buckets: make(map[int64]uint64)}
	if h == nil {
		return s
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		bound := int64(-1)
		if i < len(h.bounds) {
			bound = h.bounds[i]
		}
		s.Buckets[bound] = c
	}
	s.Count = h.n.Load()
	s.SumMS = float64(h.sumNS.Load()) / 1e6
	if s.Count > 0 {
		s.MeanMS = s.SumMS / float64(s.Count)
	}
	return s
}

// Quantile estimates the q-quantile (q in [0,1]) of a snapshot taken over
// the given bucket bounds, in milliseconds, by linear interpolation within
// the containing bucket — the same estimate Prometheus's histogram_quantile
// computes. An empty histogram yields 0; observations in the overflow
// bucket clamp to the top bound, so the estimate never extrapolates past
// the scheme.
func Quantile(s HistogramSnapshot, boundsMS []int64, q float64) float64 {
	if s.Count == 0 || len(boundsMS) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum uint64
	lower := float64(0)
	for _, bound := range boundsMS {
		c := s.Buckets[bound]
		if float64(cum+c) >= rank && c > 0 {
			frac := (rank - float64(cum)) / float64(c)
			return lower + frac*(float64(bound)-lower)
		}
		cum += c
		lower = float64(bound)
	}
	return float64(boundsMS[len(boundsMS)-1])
}
