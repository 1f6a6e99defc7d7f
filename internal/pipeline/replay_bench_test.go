package pipeline

import (
	"fmt"
	"testing"

	"itscs/internal/mcs"
)

// BenchmarkEngineReplay measures Engine.Replay per record on records that
// close no window: the per-record share of recovery. In the unstamped and
// stamped cases (each record opens its trace) one 16-participant fleet
// replays participant by participant within each slot; the engine is
// rebuilt, and its fleet's shard materialized by the first record, off the
// clock before the open window would fill.
//
// fleets=24 is the shape a recovering backend replays: 24 fleets of 158
// participants, W 240, H 60, stamped records in slot-major order (every
// fleet's reports for a slot, then the next slot), so each record lands in
// a different shard from the one before. The engine is rebuilt, and slot 0
// replayed to materialize every shard, off the clock; the open window then
// takes 24·158·239 more records before it would close.
func BenchmarkEngineReplay(b *testing.B) {
	for _, tc := range []struct {
		name    string
		stamped bool
	}{
		{"unstamped", false},
		{"stamped", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			const participants, slots = 16, 4096
			var e *Engine
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := i % (participants * slots)
				if k == 0 {
					b.StopTimer()
					if e != nil {
						e.Abort()
					}
					var err error
					if e, err = New(mechConfig(participants, slots, 1)); err != nil {
						b.Fatal(err)
					}
				}
				err := e.Replay(stampedReport(k, participants, tc.stamped))
				if k == 0 {
					b.StartTimer()
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			e.Abort()
		})
	}
	b.Run("fleets=24", func(b *testing.B) {
		const fleets, participants, window, hop = 24, 158, 240, 60
		const perSlot = fleets * participants
		names := make([]string, fleets)
		for f := range names {
			names[f] = fmt.Sprintf("fleet-%02d", f)
		}
		record := func(k int) mcs.Report {
			return mcs.Report{Fleet: names[k/participants%fleets], Participant: k % participants, Slot: k / perSlot,
				X: 1, Y: 2, IngestUnixMicro: 1_700_000_000_000_000 + int64(k), Origin: mcs.OriginRouter, TraceID: uint64(k + 1)}
		}
		var e *Engine
		k := perSlot * window // forces a rebuild first
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if k == perSlot*window {
				b.StopTimer()
				if e != nil {
					e.Abort()
				}
				var err error
				if e, err = New(mechConfig(participants, window, hop)); err != nil {
					b.Fatal(err)
				}
				for k = 0; k < perSlot; k++ {
					if err := e.Replay(record(k)); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
			}
			if err := e.Replay(record(k)); err != nil {
				b.Fatal(err)
			}
			k++
		}
		b.StopTimer()
		e.Abort()
	})
}
