package obs

import (
	"fmt"
	"strconv"
	"sync"
)

// TraceStage is one hop in a report's end-to-end journey through the
// system: the stage name, when it happened, and an optional detail (the
// wal_commit stage carries "replay" when the hop was a recovery replay
// rather than a live append).
type TraceStage struct {
	Name        string `json:"name"`
	AtUnixMicro int64  `json:"at_us"`
	Detail      string `json:"detail,omitempty"`
}

// Trace is the linked record of one stamped report's trip: ingest at a
// front door, WAL commit, the window close that consumed it, detection and
// publication. It is addressable by the propagated trace ID.
type Trace struct {
	// ID is the trace ID in fixed-width hex, as clients quote it.
	ID string `json:"id"`
	// Fleet, Participant and Slot identify the report the trace follows.
	Fleet       string `json:"fleet"`
	Participant int    `json:"participant"`
	Slot        int    `json:"slot"`
	// Origin names the door that stamped the report (direct, router).
	Origin string `json:"origin"`
	// WindowSeq is the sequence number of the first closed window that
	// consumed the report's slot; -1 while the report still waits in the
	// open ring.
	WindowSeq int `json:"window_seq"`
	// Stages is the hop list in arrival order:
	// ingest → wal_commit → window_close → detect → publish.
	Stages []TraceStage `json:"stages"`
}

// TraceIDString renders a trace ID the way every surface quotes it:
// 16 hex digits, zero-padded.
func TraceIDString(id uint64) string { return fmt.Sprintf("%016x", id) }

// ParseTraceID parses the hex form TraceIDString produces (leading zeros
// optional).
func ParseTraceID(s string) (uint64, error) {
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: bad trace id %q", s)
	}
	return id, nil
}

// TraceTable is a bounded, concurrency-safe table of live traces keyed by
// trace ID. When full, Begin evicts the oldest trace FIFO — the same
// retention contract as the span Ring. A nil table ignores every call, so
// tracing stays optional without call-site guards.
type TraceTable struct {
	mu      sync.Mutex
	cap     int
	order   []uint64 // insertion order; order[head:] are live
	head    int
	byID    map[uint64]*Trace
	evicted uint64
}

// NewTraceTable returns a table retaining up to depth traces (≤ 0 retains
// none, and every method is a no-op).
func NewTraceTable(depth int) *TraceTable {
	if depth <= 0 {
		return &TraceTable{}
	}
	return &TraceTable{cap: depth, byID: make(map[uint64]*Trace, depth)}
}

// Begin opens (or reopens, after replay re-delivers a record) the trace
// for id with its ingest stage, at the door's stamp atUnixMicro, followed
// by the given stages (the engine passes wal_commit). Opening the trace
// whole in one call means no racing window close can link it half-built.
func (t *TraceTable) Begin(id uint64, fleet string, participant, slot int, origin string, atUnixMicro int64, stages ...TraceStage) {
	if t == nil || t.cap == 0 || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.byID[id]; ok {
		// Replay of a record whose trace is still retained: keep the
		// original, already-linked trace rather than resetting it.
		return
	}
	for len(t.byID) >= t.cap {
		t.evictOldest()
	}
	t.byID[id] = &Trace{
		ID:          TraceIDString(id),
		Fleet:       fleet,
		Participant: participant,
		Slot:        slot,
		Origin:      origin,
		WindowSeq:   -1,
		Stages:      append([]TraceStage{{Name: "ingest", AtUnixMicro: atUnixMicro}}, stages...),
	}
	t.order = append(t.order, id)
	t.compact()
}

// evictOldest drops the oldest live trace. Caller holds t.mu.
func (t *TraceTable) evictOldest() {
	for t.head < len(t.order) {
		id := t.order[t.head]
		t.head++
		if _, ok := t.byID[id]; ok {
			delete(t.byID, id)
			t.evicted++
			return
		}
	}
}

// compact reclaims the consumed prefix of the order slice once it
// dominates the backlog. Caller holds t.mu.
func (t *TraceTable) compact() {
	if t.head > t.cap && t.head*2 > len(t.order) {
		t.order = append(t.order[:0:0], t.order[t.head:]...)
		t.head = 0
	}
}

// StageWindow links a window close to every retained trace whose slot
// falls in [startSlot, endSlot) and that no earlier window has claimed,
// setting WindowSeq and appending the named stage. It returns the linked
// trace IDs (callers pick an exemplar for the window span). Only the first
// claiming window links: with overlapping hops a slot belongs to several
// windows, but freshness is defined against the first close that could
// have detected on the report.
func (t *TraceTable) StageWindow(seq, startSlot, endSlot int, name string, atUnixMicro int64) []uint64 {
	if t == nil || t.cap == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var linked []uint64
	for id, tr := range t.byID {
		if tr.WindowSeq >= 0 || tr.Slot < startSlot || tr.Slot >= endSlot {
			continue
		}
		tr.WindowSeq = seq
		tr.Stages = append(tr.Stages, TraceStage{Name: name, AtUnixMicro: atUnixMicro})
		linked = append(linked, id)
	}
	return linked
}

// StageSeq appends a stage to every retained trace claimed by window seq.
func (t *TraceTable) StageSeq(seq int, name, detail string, atUnixMicro int64) {
	if t == nil || t.cap == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tr := range t.byID {
		if tr.WindowSeq == seq {
			tr.Stages = append(tr.Stages, TraceStage{Name: name, AtUnixMicro: atUnixMicro, Detail: detail})
		}
	}
}

// Lookup returns a deep copy of the trace for id, if retained.
func (t *TraceTable) Lookup(id uint64) (Trace, bool) {
	if t == nil || t.cap == 0 {
		return Trace{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr, ok := t.byID[id]
	if !ok {
		return Trace{}, false
	}
	return copyTrace(tr), true
}

// Snapshot copies the retained traces, newest first.
func (t *TraceTable) Snapshot() []Trace {
	if t == nil || t.cap == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Trace, 0, len(t.byID))
	for i := len(t.order) - 1; i >= t.head; i-- {
		if tr, ok := t.byID[t.order[i]]; ok {
			out = append(out, copyTrace(tr))
		}
	}
	return out
}

// Len reports how many traces the table currently retains.
func (t *TraceTable) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byID)
}

// Evicted reports how many traces retention has dropped so far.
func (t *TraceTable) Evicted() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted
}

func copyTrace(tr *Trace) Trace {
	out := *tr
	out.Stages = append([]TraceStage(nil), tr.Stages...)
	return out
}
