package obs

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
)

// TraceStage is one hop in a report's end-to-end journey: its name, when
// it happened, and an optional detail ("replay" on a recovery replay's
// wal_commit, the flagged cell count on detect).
type TraceStage struct {
	Name        string `json:"name"`
	AtUnixMicro int64  `json:"at_us"`
	Detail      string `json:"detail,omitempty"`
}

// Trace is the linked record of one stamped report's trip from a front
// door to publication, addressable by its propagated trace ID.
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
	// consumed the report's slot; -1 while it waits in the open ring.
	WindowSeq int `json:"window_seq"`
	// Stages lists the hops reached, in the order every trace passes them:
	// ingest → wal_commit → window_close → detect → publish.
	Stages []TraceStage `json:"stages"`
}

// TraceIDString renders a trace ID as every surface quotes it: 16 hex digits.
func TraceIDString(id uint64) string {
	s := strconv.FormatUint(id, 16)
	return "0000000000000000"[len(s):] + s
}

// ParseTraceID parses TraceIDString's hex form (leading zeros optional).
func ParseTraceID(s string) (uint64, error) {
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: bad trace id %q", s)
	}
	return id, nil
}

// stageNames is the closed set of stages every trace passes, in order; a
// record keeps one time per stage, notReached until the stage happens.
var stageNames = [...]string{"ingest", "wal_commit", "window_close", "detect", "publish"}

const walCommit, windowClose, detect, publish, notReached = 1, 2, 3, 4, math.MinInt64

// traceRec is a retained trace as a fixed-size value: writers only store
// into the ring, and readers render the hex ID, stage names and details.
type traceRec struct {
	id                     uint64
	fleet, origin          string
	participant, slot, seq int
	at                     [len(stageNames)]int64
	commitDetail           string // "replay" when the commit was a replay
	flagged                int    // the detect stage's flagged cells
}

func (rec *traceRec) trace() Trace {
	detail := [len(stageNames)]string{walCommit: rec.commitDetail, detect: "flagged=" + strconv.Itoa(rec.flagged)}
	tr := Trace{ID: TraceIDString(rec.id), Fleet: rec.fleet, Participant: rec.participant, Slot: rec.slot,
		Origin: rec.origin, WindowSeq: rec.seq, Stages: make([]TraceStage, 0, len(stageNames))}
	for s, at := range rec.at {
		if at != notReached {
			tr.Stages = append(tr.Stages, TraceStage{Name: stageNames[s], AtUnixMicro: at, Detail: detail[s]})
		}
	}
	return tr
}

// TraceTable is a bounded, concurrency-safe table of live traces keyed by
// trace ID. When full, Begin evicts the oldest trace FIFO, as the span Ring
// does. A nil table ignores every call, so call sites need no guards.
type TraceTable struct {
	mu   sync.Mutex
	recs ring[traceRec] // oldest first
	byID map[uint64]int // index into recs.buf
}

// NewTraceTable retains up to depth traces (≤ 0: none, every call a no-op).
func NewTraceTable(depth int) *TraceTable {
	return &TraceTable{recs: newRing[traceRec](depth), byID: make(map[uint64]int, max(depth, 0))}
}

// Begin opens the trace for id with its ingest stage at the door's stamp
// and, if commit is non-nil, its wal_commit stage (commit's time and
// detail) in one call, so no racing window close links it half-built. A
// retained id (replay re-delivers records) keeps its original trace.
func (t *TraceTable) Begin(id uint64, fleet string, participant, slot int, origin string, atUnixMicro int64, commit *TraceStage) {
	if t == nil || len(t.recs.buf) == 0 || id == 0 {
		return
	}
	rec := traceRec{id: id, fleet: fleet, origin: origin, participant: participant, slot: slot, seq: -1,
		at: [...]int64{atUnixMicro, notReached, notReached, notReached, notReached}}
	if commit != nil {
		rec.at[walCommit], rec.commitDetail = commit.AtUnixMicro, commit.Detail
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.byID[id]; !ok {
		delete(t.byID, t.recs.buf[t.recs.next].id) // the record push evicts (id 0: none)
		t.byID[id] = t.recs.next
		t.recs.push(rec)
	}
}

// StageWindow claims for window seq, at its window_close stage, every
// retained trace with a slot in [startSlot, endSlot) that no earlier
// window claimed: with overlapping hops a slot is in several windows, but
// freshness is defined against the first close that could detect on it. It
// returns the claimed IDs in Begin order; the first is the span exemplar.
func (t *TraceTable) StageWindow(seq, startSlot, endSlot int, atUnixMicro int64) (linked []uint64) {
	t.each(func(rec *traceRec) {
		if rec.seq < 0 && rec.slot >= startSlot && rec.slot < endSlot {
			rec.seq, rec.at[windowClose] = seq, atUnixMicro
			linked = append(linked, rec.id)
		}
	})
	return linked
}

// StageDetect records detect, with its flagged cell count, on the traces window seq claimed.
func (t *TraceTable) StageDetect(seq, flagged int, atUnixMicro int64) {
	t.each(func(rec *traceRec) {
		if rec.seq == seq {
			rec.at[detect], rec.flagged = atUnixMicro, flagged
		}
	})
}

// StagePublish records the publish stage on the traces window seq claimed.
func (t *TraceTable) StagePublish(seq int, atUnixMicro int64) {
	t.each(func(rec *traceRec) {
		if rec.seq == seq {
			rec.at[publish] = atUnixMicro
		}
	})
}

// each calls fn on every retained record, oldest first, under the lock.
func (t *TraceTable) each(fn func(*traceRec)) {
	if t != nil {
		t.mu.Lock()
		defer t.mu.Unlock()
		for i := 0; i < t.recs.n; i++ {
			fn(t.recs.at(i))
		}
	}
}

// Lookup renders the trace for id, if retained.
func (t *TraceTable) Lookup(id uint64) (tr Trace, ok bool) {
	t.each(func(rec *traceRec) {
		if rec.id == id {
			tr, ok = rec.trace(), true
		}
	})
	return tr, ok
}

// Snapshot renders the retained traces, newest first.
func (t *TraceTable) Snapshot() []Trace {
	if t == nil || len(t.recs.buf) == 0 {
		return nil
	}
	out := []Trace{}
	t.each(func(rec *traceRec) { out = append(out, rec.trace()) })
	slices.Reverse(out)
	return out
}

// Len reports how many traces the table currently retains.
func (t *TraceTable) Len() (n int) { t.each(func(*traceRec) { n++ }); return n }
