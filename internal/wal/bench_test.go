package wal

import (
	"fmt"
	"sync"
	"testing"

	"itscs/internal/mcs"
)

func benchReport(i int) mcs.Report {
	return mcs.Report{
		Fleet:       "cab",
		Participant: i % 1000,
		Slot:        i / 1000,
		X:           float64(i) * 0.25,
		Y:           float64(i) * -0.5,
		VX:          1.25,
		VY:          -2.5,
	}
}

// BenchmarkAppend measures single-writer ingest throughput per fsync
// policy, one report per AppendBatch and 128 per call (a read's worth of
// report lines at the TCP door). b.N counts reports; fsyncs/record is the
// fsync cost each report carries.
func BenchmarkAppend(b *testing.B) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		for _, size := range []int{1, 128} {
			b.Run(fmt.Sprintf("%s/batch=%d", policy, size), func(b *testing.B) {
				opt := DefaultOptions()
				opt.Sync = policy
				log, err := Open(b.TempDir(), opt)
				if err != nil {
					b.Fatal(err)
				}
				defer log.Close()
				batch := make([]mcs.Report, size)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i += size {
					n := min(size, b.N-i)
					for j := range batch[:n] {
						batch[j] = benchReport(i + j)
					}
					if err := log.AppendBatch(batch[:n]); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(log.Stats().Fsyncs)/float64(b.N), "fsyncs/record")
			})
		}
	}
}

// BenchmarkAppendParallel measures group-commit throughput with many
// concurrent producers, the shape the TCP ingest path generates.
func BenchmarkAppendParallel(b *testing.B) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		b.Run(policy.String(), func(b *testing.B) {
			opt := DefaultOptions()
			opt.Sync = policy
			log, err := Open(b.TempDir(), opt)
			if err != nil {
				b.Fatal(err)
			}
			defer log.Close()
			var seq sync.Mutex
			next := 0
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					seq.Lock()
					i := next
					next++
					seq.Unlock()
					if err := log.AppendBatch([]mcs.Report{benchReport(i)}); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkReplay measures recovery-side log replay throughput.
func BenchmarkReplay(b *testing.B) {
	// 960_000 is the fleet-scale shape (1000 participants × 960 slots).
	for _, records := range []int{100_000, 960_000} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			if testing.Short() && records > 100_000 {
				b.Skip("fleet-scale replay skipped in -short mode")
			}
			dir := b.TempDir()
			opt := DefaultOptions()
			opt.Sync = SyncNever
			log, err := Open(dir, opt)
			if err != nil {
				b.Fatal(err)
			}
			batch := make([]mcs.Report, 1024)
			for i := 0; i < records; i += len(batch) {
				for j := range batch {
					batch[j] = benchReport(i + j)
				}
				if err := log.AppendBatch(batch[:min(len(batch), records-i)]); err != nil {
					b.Fatal(err)
				}
			}
			if err := log.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				log, err := Open(dir, opt)
				if err != nil {
					b.Fatal(err)
				}
				got, err := log.Replay(0, func(_ uint64, _ mcs.Report) error {
					return nil
				})
				if err != nil || got != uint64(records) {
					b.Fatalf("replayed %d of %d, err %v", got, records, err)
				}
				if err := log.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
