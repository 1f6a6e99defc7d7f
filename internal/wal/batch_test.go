package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"

	"itscs/internal/fault"
	"itscs/internal/mcs"
)

// segmentBytes returns the bytes of the log's only segment.
func segmentBytes(t *testing.T, dir string) []byte {
	t.Helper()
	segs, err := listSegments(fault.OS(), dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v: %v", segs, err)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// batchReports mixes unstamped and stamped reports of two fleets.
func batchReports(n int) []mcs.Report {
	rs := make([]mcs.Report, n)
	for i := range rs {
		rs[i] = testReport(i%7, i)
		if i%3 == 0 {
			rs[i].Fleet = "bus"
			rs[i].IngestUnixMicro = 1_700_000_000_000_000 + int64(i)
			rs[i].Origin = mcs.OriginRouter
			rs[i].TraceID = uint64(0xbeef + i)
		}
	}
	return rs
}

// TestAppendBatchBytesMatchSingleAppends pins the on-disk format: one
// AppendBatch of rs writes exactly the segment bytes that appending the
// same reports one at a time does, and replays them in order.
func TestAppendBatchBytesMatchSingleAppends(t *testing.T) {
	rs := batchReports(40)
	oneDir, batchDir := t.TempDir(), t.TempDir()

	one := openTestLog(t, oneDir, DefaultOptions())
	for _, r := range rs {
		if err := one.AppendBatch([]mcs.Report{r}); err != nil {
			t.Fatal(err)
		}
	}
	if err := one.Close(); err != nil {
		t.Fatal(err)
	}

	batch := openTestLog(t, batchDir, DefaultOptions())
	if err := batch.AppendBatch(rs); err != nil {
		t.Fatal(err)
	}
	if err := batch.AppendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	st := batch.Stats()
	if st.Records != uint64(len(rs)) || st.Batches != 1 {
		t.Errorf("stats = %d records in %d batches, want %d in 1", st.Records, st.Batches, len(rs))
	}
	if err := batch.Close(); err != nil {
		t.Fatal(err)
	}

	if a, b := segmentBytes(t, oneDir), segmentBytes(t, batchDir); !bytes.Equal(a, b) {
		t.Fatalf("segment bytes differ: %d single-append bytes vs %d batch bytes", len(a), len(b))
	}
	l := openTestLog(t, batchDir, DefaultOptions())
	defer l.Close()
	got := collect(t, l, 0)
	if len(got) != len(rs) {
		t.Fatalf("replayed %d of %d", len(got), len(rs))
	}
	for i := range rs {
		if got[i] != rs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], rs[i])
		}
	}
}

// TestAppendBatchConcurrentKeepsEachBatchWhole has writers race their
// batches into one log: every batch's records replay contiguously and in
// order, and the committer never splits a request across writes.
func TestAppendBatchConcurrentKeepsEachBatchWhole(t *testing.T) {
	const writers, batches, size = 4, 25, 9
	l := openTestLog(t, t.TempDir(), DefaultOptions())
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				rs := make([]mcs.Report, size)
				for i := range rs {
					rs[i] = testReport(w, b*size+i)
				}
				if err := l.AppendBatch(rs); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	got := collect(t, l, 0)
	if len(got) != writers*batches*size {
		t.Fatalf("replayed %d of %d", len(got), writers*batches*size)
	}
	for i := 0; i < len(got); i += size {
		for j := 1; j < size; j++ {
			if got[i+j].Participant != got[i].Participant || got[i+j].Slot != got[i].Slot+j {
				t.Fatalf("batch starting at record %d interleaved: %+v then %+v", i, got[i], got[i+j])
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// setupOps is the number of filesystem operations Open performs on an
// empty directory (create, write and fsync the first segment's header);
// each SyncAlways append adds a write and an fsync.
const setupOps = 3

// appendAll appends each report on its own and returns those acked.
func appendAll(l *Log, rs []mcs.Report) []mcs.Report {
	var acked []mcs.Report
	for _, r := range rs {
		if l.AppendBatch([]mcs.Report{r}) == nil {
			acked = append(acked, r)
		}
	}
	return acked
}

// replayAll reopens dir on the plain filesystem and replays every record.
func replayAll(t *testing.T, dir string) ([]mcs.Report, Stats) {
	t.Helper()
	l := openTestLog(t, dir, DefaultOptions())
	defer l.Close()
	return collect(t, l, 0), l.Stats()
}

// TestTornWriteDoesNotLoseLaterAckedRecords injects one torn append: the
// write persists a prefix of its frame and fails. Appends after it are
// acked, so a restart must replay every one of them; a torn frame left in
// the segment would make Open cut them all off with it.
func TestTornWriteDoesNotLoseLaterAckedRecords(t *testing.T) {
	dir := t.TempDir()
	in := fault.NewInjector(fault.Plan{PWriteErr: 1, PTornWrite: 1, After: setupOps + 2*5, MaxFaults: 1})
	opt := DefaultOptions()
	opt.FS = fault.Inject(fault.OS(), in)
	l := openTestLog(t, dir, opt)
	rs := make([]mcs.Report, 20)
	for i := range rs {
		rs[i] = testReport(i%3, i)
	}
	acked := appendAll(l, rs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	faults := in.Faults()
	if len(faults) != 1 || !faults[0].Torn {
		t.Fatalf("want one torn write injected, got %+v", faults)
	}
	if len(acked) != len(rs)-1 {
		t.Fatalf("acked %d of %d, want all but the torn one", len(acked), len(rs))
	}

	got, st := replayAll(t, dir)
	if st.TruncatedBytes != 0 {
		t.Errorf("Open truncated %d bytes: the torn frame stayed in the segment", st.TruncatedBytes)
	}
	if len(got) != len(acked) {
		t.Fatalf("replayed %d of %d acked records", len(got), len(acked))
	}
	for i := range acked {
		if got[i] != acked[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], acked[i])
		}
	}
}

// TestFailedFsyncCutsItsRecordsBack fails one SyncAlways fsync: its
// waiter hears the error, so its record must not replay, and the index
// must stay in step with the segment's frames.
func TestFailedFsyncCutsItsRecordsBack(t *testing.T) {
	dir := t.TempDir()
	in := fault.NewInjector(fault.Plan{PSyncErr: 1, After: setupOps + 2*5, MaxFaults: 1})
	opt := DefaultOptions()
	opt.FS = fault.Inject(fault.OS(), in)
	l := openTestLog(t, dir, opt)
	rs := make([]mcs.Report, 12)
	for i := range rs {
		rs[i] = testReport(0, i)
	}
	acked := appendAll(l, rs)
	if len(acked) != len(rs)-1 {
		t.Fatalf("acked %d of %d, want all but one", len(acked), len(rs))
	}
	if got := l.AppendedIndex(); got != uint64(len(acked)) {
		t.Fatalf("AppendedIndex = %d, want %d", got, len(acked))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, dir)
	if fmt.Sprint(got) != fmt.Sprint(acked) {
		t.Fatalf("replayed %d records, want the %d acked ones", len(got), len(acked))
	}
}

// TestFailedCutBackBreaksTheLog fails a write and then the truncation
// that should remove its torn prefix: the log must refuse every later
// append (and sync) rather than acknowledge records behind the tear.
func TestFailedCutBackBreaksTheLog(t *testing.T) {
	dir := t.TempDir()
	in := fault.NewInjector(fault.Plan{PWriteErr: 1, PTornWrite: 1, PRemoveErr: 1, After: setupOps + 2*4, MaxFaults: 2})
	opt := DefaultOptions()
	opt.FS = fault.Inject(fault.OS(), in)
	l := openTestLog(t, dir, opt)
	rs := make([]mcs.Report, 10)
	for i := range rs {
		rs[i] = testReport(1, i)
	}
	acked := appendAll(l, rs)
	if len(acked) != 4 {
		t.Fatalf("acked %d, want the 4 before the failure", len(acked))
	}
	if err := l.AppendBatch(rs[:1]); err == nil || errors.Is(err, ErrClosed) {
		t.Fatalf("append to a broken log = %v, want the sticky failure", err)
	}
	if err := l.Sync(); err == nil {
		t.Fatal("sync of a broken log succeeded")
	}
	_ = l.Close()
	got, _ := replayAll(t, dir)
	if fmt.Sprint(got) != fmt.Sprint(acked) {
		t.Fatalf("replayed %d records, want the %d acked ones", len(got), len(acked))
	}
}
