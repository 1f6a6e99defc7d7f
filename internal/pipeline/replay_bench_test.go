package pipeline

import "testing"

// BenchmarkEngineReplay measures Engine.Replay per record, stamped (each
// record opens its trace) or not, on records that close no window: the
// per-record share of recovery. The engine is rebuilt, and its fleet's
// shard materialized by the first record, off the clock before the open
// window would fill.
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
}
