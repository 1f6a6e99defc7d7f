package node

import (
	"fmt"
	"testing"
	"time"

	"itscs/internal/fault"
	"itscs/internal/mcs"
	"itscs/internal/pipeline"
	"itscs/internal/reputation"
	"itscs/internal/wal"
)

// BenchmarkRecoverReplay measures startup recovery's log replay end to
// end: each iteration opens the log as a restarted backend does and runs
// Recover into a fresh engine and reputation ledger. The log holds stamped
// records at the shape a recovering backend replays: 24 fleets of 158
// participants, W 240, H 60, in slot-major order (every fleet's reports for
// a slot, then the next slot). It has no checkpoint and ends before the
// first window would close, so Recover is the log read and the engine's
// replay, plus materializing the 24 shards on the first slot. The engine,
// ledger and log open are off the clock; records/s counts replayed records
// over the time in Recover.
func BenchmarkRecoverReplay(b *testing.B) {
	const fleets, participants, window, hop, slots = 24, 158, 240, 60, 120
	dir := b.TempDir()
	wopt := wal.DefaultOptions()
	wopt.Sync = wal.SyncNever
	log, err := wal.Open(dir, wopt)
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, fleets)
	for f := range names {
		names[f] = fmt.Sprintf("fleet-%02d", f)
	}
	stamped := time.Now()
	batch := make([]mcs.Report, 0, fleets*participants)
	for s := 0; s < slots; s++ {
		batch = batch[:0]
		for f := 0; f < fleets; f++ {
			for p := 0; p < participants; p++ {
				r := mcs.Report{Fleet: names[f], Participant: p, Slot: s,
					X: float64(1000*p + s), Y: float64(500*f - s), VX: 1.5, VY: -0.5}
				mcs.StampIngest(&r, stamped, mcs.OriginRouter)
				batch = append(batch, r)
			}
		}
		if err := log.AppendBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		b.Fatal(err)
	}
	const records = fleets * participants * slots

	b.ReportAllocs()
	b.ResetTimer()
	var busy time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		log, err := wal.Open(dir, wopt)
		if err != nil {
			b.Fatal(err)
		}
		ledger, err := reputation.New(reputation.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		ecfg := pipeline.DefaultConfig()
		ecfg.Participants, ecfg.WindowSlots, ecfg.HopSlots = participants, window, hop
		ecfg.Log, ecfg.Gate, ecfg.OnResult = log, ledger, ledger.Fold
		engine, err := pipeline.New(ecfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		began := time.Now()
		info, err := Recover(fault.OS(), dir, log, engine, ledger)
		busy += time.Since(began)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if info.ReplayedRecords != records || info.ReplayRejected != 0 {
			b.Fatalf("replayed %d records, %d rejected; want %d, 0", info.ReplayedRecords, info.ReplayRejected, records)
		}
		engine.Abort()
		if err := log.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(records)*float64(b.N)/busy.Seconds(), "records/s")
}
