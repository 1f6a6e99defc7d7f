package obs

import (
	"context"
	"log/slog"
	"sync"
	"time"
)

// Span is the trace record of one window's trip through the streaming
// engine: identity, what the detector saw, how the outer loop behaved, and
// where the wall-clock time went (queue residence plus the per-phase
// DETECT/CORRECT/CHECK split the paper's evaluation is framed around).
type Span struct {
	Fleet string `json:"fleet"`
	Seq   int    `json:"seq"`
	// StartSlot (inclusive) and EndSlot (exclusive) bound the window on the
	// stream's absolute slot timeline.
	StartSlot int `json:"start_slot"`
	EndSlot   int `json:"end_slot"`
	// Observed counts reported cells, Flagged the cells judged faulty.
	Observed int `json:"observed"`
	Flagged  int `json:"flagged"`
	// Iterations counts outer DETECT→CORRECT→CHECK rounds; Sweeps the ASD
	// sweeps summed over both axes and all rounds (the dominant cost).
	Iterations int  `json:"iterations"`
	Sweeps     int  `json:"sweeps"`
	Converged  bool `json:"converged"`
	// WarmStarted reports whether CORRECT consumed the previous window's
	// factorization (warm) or fell back to the SVD init (cold).
	WarmStarted bool `json:"warm_started"`
	// QueueWaitMS is the dispatch-queue residence time; DetectMS, CorrectMS
	// and CheckMS split the detection loop by phase; RunMS is the whole loop.
	QueueWaitMS float64 `json:"queue_wait_ms"`
	DetectMS    float64 `json:"detect_ms"`
	CorrectMS   float64 `json:"correct_ms"`
	CheckMS     float64 `json:"check_ms"`
	RunMS       float64 `json:"run_ms"`
	// CompletedAt stamps when the worker finished the window.
	CompletedAt time.Time `json:"completed_at"`
	// TraceID is an exemplar: the hex trace ID of one stamped report this
	// window consumed, linking the window span to its end-to-end Trace.
	// Empty when the window held no traced reports.
	TraceID string `json:"trace_id,omitempty"`
}

// TotalMS is the window's end-to-end latency: queue wait plus detection.
func (s Span) TotalMS() float64 { return s.QueueWaitMS + s.RunMS }

// LogValue renders the span as a structured group, so a logger can attach
// the whole record with one attr.
func (s Span) LogValue() slog.Value {
	return slog.GroupValue(
		slog.String("fleet", s.Fleet),
		slog.Int("seq", s.Seq),
		slog.Int("start_slot", s.StartSlot),
		slog.Int("end_slot", s.EndSlot),
		slog.Int("observed", s.Observed),
		slog.Int("flagged", s.Flagged),
		slog.Int("iterations", s.Iterations),
		slog.Int("sweeps", s.Sweeps),
		slog.Bool("converged", s.Converged),
		slog.Bool("warm_started", s.WarmStarted),
		slog.Float64("queue_wait_ms", s.QueueWaitMS),
		slog.Float64("detect_ms", s.DetectMS),
		slog.Float64("correct_ms", s.CorrectMS),
		slog.Float64("check_ms", s.CheckMS),
		slog.Float64("run_ms", s.RunMS),
		slog.String("trace_id", s.TraceID),
	)
}

// ring is the fixed-capacity FIFO behind Ring and TraceTable: push
// appends, evicting the oldest value once full, and a zero-capacity ring
// keeps nothing. Callers hold their own lock.
type ring[T any] struct {
	buf  []T
	next int // index the next push writes
	n    int // live values, ≤ len(buf)
}

func newRing[T any](depth int) ring[T] { return ring[T]{buf: make([]T, max(depth, 0))} }

// push appends v and, when the ring was full, returns the value it evicted.
func (r *ring[T]) push(v T) (evicted T, full bool) {
	if len(r.buf) == 0 {
		return v, true
	}
	if r.n == len(r.buf) {
		evicted, full = r.buf[r.next], true
	} else {
		r.n++
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	return evicted, full
}

// at returns the i-th oldest live value, 0 ≤ i < n, in place.
func (r *ring[T]) at(i int) *T { return &r.buf[(r.next-r.n+i+len(r.buf))%len(r.buf)] }

// Ring is a bounded, concurrency-safe buffer of the most recent spans. A
// zero-capacity ring retains nothing; Add never blocks or allocates beyond
// the fixed buffer.
type Ring struct {
	mu    sync.Mutex
	spans ring[Span]
}

// NewRing returns a ring retaining up to depth spans (≤ 0 retains none).
func NewRing(depth int) *Ring { return &Ring{spans: newRing[Span](depth)} }

// Add records a span, evicting the oldest when full.
func (r *Ring) Add(s Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans.push(s)
}

// Snapshot copies the retained spans, newest first.
func (r *Ring) Snapshot() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, r.spans.n)
	for i := range out {
		out[i] = *r.spans.at(r.spans.n - 1 - i)
	}
	return out
}

// Len reports how many spans the ring currently retains.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans.n
}

// Observer receives pipeline window lifecycle events. Implementations must
// be cheap and non-blocking — callbacks run on the engine's ingest and
// worker goroutines — and must not call back into the engine.
type Observer interface {
	// WindowProcessed fires after a window completes the detection loop.
	WindowProcessed(Span)
	// WindowDropped fires when backpressure evicts a queued window (or a
	// crash-style Abort discards one): data acked at ingest that will never
	// be detected on. queueDepth is the dispatch queue's occupancy at the
	// time of the drop.
	WindowDropped(fleet string, seq, queueDepth int)
	// WindowFailed fires when the detection loop refuses a window.
	WindowFailed(fleet string, seq int, err error)
}

// LogObserver is the production Observer: every event becomes a structured
// log line. Processed windows log at debug, or at warn with message
// "slow window" once queue wait plus run time reaches SlowWindow (0
// disables the threshold). Drops and failures always log at warn and error.
type LogObserver struct {
	Log *slog.Logger
	// SlowWindow is the end-to-end latency at which a processed window is
	// escalated from debug to warn.
	SlowWindow time.Duration
}

// WindowProcessed implements Observer.
func (o *LogObserver) WindowProcessed(s Span) {
	lvl, msg := slog.LevelDebug, "window processed"
	if o.SlowWindow > 0 && s.TotalMS() >= float64(o.SlowWindow)/1e6 {
		lvl, msg = slog.LevelWarn, "slow window"
	}
	o.Log.LogAttrs(context.Background(), lvl, msg, slog.Any("window", s))
}

// WindowDropped implements Observer.
func (o *LogObserver) WindowDropped(fleet string, seq, queueDepth int) {
	o.Log.LogAttrs(context.Background(), slog.LevelWarn, "window dropped under backpressure",
		slog.String("fleet", fleet), slog.Int("seq", seq), slog.Int("queue_depth", queueDepth))
}

// WindowFailed implements Observer.
func (o *LogObserver) WindowFailed(fleet string, seq int, err error) {
	o.Log.LogAttrs(context.Background(), slog.LevelError, "window failed",
		slog.String("fleet", fleet), slog.Int("seq", seq), slog.String("err", err.Error()))
}
