package wal

import (
	"testing"

	"itscs/internal/mcs"
)

// TestReplayAllocs pins what Log.Replay costs the heap per record: nothing.
// A replay of the last record reads every frame but decodes one, so its
// allocations are the call's own (segment open, reader buffer, the first
// fleet); a replay of all records over the same frames must allocate no
// more than that plus a margin far below one per record. The margin
// absorbs what the runtime allocates when a GC cycle or a new thread lands
// in one measurement; an allocation per record exceeds it a hundredfold. A
// fleet that repeats from record to record shares one string instead of a
// copy each.
func TestReplayAllocs(t *testing.T) {
	const records = 2000
	opt := DefaultOptions()
	opt.Sync = SyncNever
	log, err := Open(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	batch := make([]mcs.Report, records)
	for i := range batch {
		batch[i] = benchReport(i)
		if i%2 == 1 { // stamped and unstamped records alike
			batch[i].IngestUnixMicro, batch[i].Origin, batch[i].TraceID = 1_700_000_000_000_000, mcs.OriginRouter, uint64(i)
		}
	}
	if err := log.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	replay := func(from uint64) float64 {
		return testing.AllocsPerRun(5, func() {
			var seen uint64
			if _, err := log.Replay(from, func(_ uint64, r mcs.Report) error {
				if r.Fleet != "cab" {
					t.Fatalf("replayed fleet %q", r.Fleet)
				}
				seen++
				return nil
			}); err != nil || seen != records-from {
				t.Fatalf("replayed %d from %d, err %v", seen, from, err)
			}
		})
	}
	base, all := replay(records-1), replay(0)
	if all-base >= records/100 {
		t.Errorf("replaying %d records allocates %v, replaying one %v: want no allocation per record", records, all, base)
	}
}
