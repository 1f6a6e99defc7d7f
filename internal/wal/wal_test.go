package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"itscs/internal/fault"
	"itscs/internal/mcs"
)

func testReport(p, slot int) mcs.Report {
	return mcs.Report{
		Fleet:       "cab",
		Participant: p,
		Slot:        slot,
		X:           float64(100*p + slot),
		Y:           -float64(slot),
		VX:          0.5,
		VY:          -0.25,
	}
}

func openTestLog(t *testing.T, dir string, opt Options) *Log {
	t.Helper()
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func collect(t *testing.T, l *Log, from uint64) []mcs.Report {
	t.Helper()
	var out []mcs.Report
	if _, err := l.Replay(from, func(_ uint64, r mcs.Report) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, DefaultOptions())
	const n = 25
	for i := 0; i < n; i++ {
		if err := l.Append(testReport(i%5, i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if got := l.AppendedIndex(); got != n {
		t.Fatalf("AppendedIndex = %d, want %d", got, n)
	}
	got := collect(t, l, 0)
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i, r := range got {
		if r != testReport(i%5, i) {
			t.Fatalf("record %d = %+v, want %+v", i, r, testReport(i%5, i))
		}
	}
	// Replay from an offset delivers only the tail.
	if tail := collect(t, l, n-7); len(tail) != 7 {
		t.Fatalf("tail replay = %d records, want 7", len(tail))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testReport(0, 99)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}

	// Reopen: the index and contents survive.
	l2 := openTestLog(t, dir, DefaultOptions())
	defer l2.Close()
	if got := l2.AppendedIndex(); got != n {
		t.Fatalf("reopened AppendedIndex = %d, want %d", got, n)
	}
	if got := collect(t, l2, 0); len(got) != n {
		t.Fatalf("reopened replay = %d records, want %d", len(got), n)
	}
	if err := l2.Append(testReport(1, 500)); err != nil {
		t.Fatal(err)
	}
	if got := l2.AppendedIndex(); got != n+1 {
		t.Fatalf("post-reopen AppendedIndex = %d, want %d", got, n+1)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			opt := DefaultOptions()
			opt.Sync = policy
			opt.SyncEvery = 10 * time.Millisecond
			l := openTestLog(t, t.TempDir(), opt)
			for i := 0; i < 10; i++ {
				if err := l.Append(testReport(0, i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			st := l.Stats()
			if st.Records != 10 {
				t.Errorf("records = %d, want 10", st.Records)
			}
			switch policy {
			case SyncAlways:
				if st.Fsyncs < 10 {
					t.Errorf("always: fsyncs = %d, want >= 10", st.Fsyncs)
				}
			case SyncNever:
				// Only the explicit Sync barrier (if anything was dirty).
				if st.Fsyncs > 1 {
					t.Errorf("never: fsyncs = %d, want <= 1", st.Fsyncs)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"interval", SyncInterval}, {"never", SyncNever}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("bad policy accepted")
	}
}

func TestConcurrentAppendGroupCommit(t *testing.T) {
	l := openTestLog(t, t.TempDir(), DefaultOptions())
	defer l.Close()
	const writers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append(testReport(w, i)); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Records != writers*per {
		t.Fatalf("records = %d, want %d", st.Records, writers*per)
	}
	// Every record must replay intact; per-writer slot order is preserved
	// because each writer's appends are sequential.
	seen := make(map[int]int) // participant -> next expected slot
	for _, r := range collect(t, l, 0) {
		if r.Slot != seen[r.Participant] {
			t.Fatalf("writer %d: slot %d out of order (want %d)", r.Participant, r.Slot, seen[r.Participant])
		}
		seen[r.Participant]++
	}
	if st.Batches == 0 || st.Batches > st.Records {
		t.Errorf("batches = %d records = %d", st.Batches, st.Records)
	}
}

func TestSegmentRotationAndCompaction(t *testing.T) {
	opt := DefaultOptions()
	opt.SegmentBytes = 256 // tiny: a few records per segment
	dir := t.TempDir()
	l := openTestLog(t, dir, opt)
	const n = 100
	for i := 0; i < n; i++ {
		if err := l.Append(testReport(i%3, i)); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("segments = %d, want several (rotation broken)", st.Segments)
	}
	if st.Rotations == 0 {
		t.Error("no rotations counted")
	}

	// Compact everything behind record 50: early segments disappear, and
	// replay from 50 still yields exactly the tail.
	removed, err := l.Compact(50)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Error("compaction removed nothing")
	}
	tail := collect(t, l, 50)
	if len(tail) != n-50 {
		t.Fatalf("post-compaction tail = %d records, want %d", len(tail), n-50)
	}
	if tail[0] != testReport(50%3, 50) {
		t.Fatalf("tail starts at %+v, want slot 50", tail[0])
	}
	// The active segment never goes away, even for an absurd horizon.
	if _, err := l.Compact(1 << 60); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Segments < 1 {
		t.Fatal("active segment compacted away")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen after compaction: indices still line up with the surviving
	// segment headers.
	l2 := openTestLog(t, dir, opt)
	defer l2.Close()
	if got := l2.AppendedIndex(); got != n {
		t.Fatalf("AppendedIndex after compacted reopen = %d, want %d", got, n)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, DefaultOptions())
	for i := 0; i < 10; i++ {
		if err := l.Append(testReport(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(fault.OS(), dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	last := segs[len(segs)-1]
	// Tear the tail: append half a frame, as a crash mid-write would.
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{42, 0, 0, 0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2 := openTestLog(t, dir, DefaultOptions())
	defer l2.Close()
	st := l2.Stats()
	if st.TruncatedBytes != 6 {
		t.Errorf("truncated bytes = %d, want 6", st.TruncatedBytes)
	}
	if got := l2.AppendedIndex(); got != 10 {
		t.Fatalf("AppendedIndex = %d, want 10", got)
	}
	// The log keeps working where the tear was cut off.
	if err := l2.Append(testReport(1, 100)); err != nil {
		t.Fatal(err)
	}
	got := collect(t, l2, 0)
	if len(got) != 11 || got[10] != testReport(1, 100) {
		t.Fatalf("replay after tear = %d records (last %+v)", len(got), got[len(got)-1])
	}
}

func TestCorruptInteriorSegmentSkippedAndCounted(t *testing.T) {
	opt := DefaultOptions()
	opt.SegmentBytes = 256
	dir := t.TempDir()
	l := openTestLog(t, dir, opt)
	const n = 60
	for i := 0; i < n; i++ {
		if err := l.Append(testReport(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(fault.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(segs))
	}
	// Flip payload bytes in the middle of the second segment: its tail is
	// damaged but the following segments must still replay.
	victim := segs[1]
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	mid := len(data) / 2
	data[mid] ^= 0xFF
	data[mid+1] ^= 0xFF
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := openTestLog(t, dir, opt)
	defer l2.Close()
	got := collect(t, l2, 0)
	if len(got) >= n || len(got) == 0 {
		t.Fatalf("replay after interior corruption = %d records, want (0,%d)", len(got), n)
	}
	// Slots must stay strictly increasing across the damage gap: the next
	// segment's header re-anchors the sequence, no record is duplicated.
	for i := 1; i < len(got); i++ {
		if got[i].Slot <= got[i-1].Slot {
			t.Fatalf("slot order broken across gap: %d then %d", got[i-1].Slot, got[i].Slot)
		}
	}
	// The damage is found and counted once, by the replay that reads it.
	st := l2.Stats()
	if st.CorruptSegments != 1 {
		t.Errorf("CorruptSegments = %d, want 1", st.CorruptSegments)
	}
	if want := uint64(n - len(got)); st.ReplaySkipped != want {
		t.Errorf("ReplaySkipped = %d, want %d (records not replayed)", st.ReplaySkipped, want)
	}
	// The tail after the corrupt segment still appends and replays.
	if err := l2.Append(testReport(9, 999)); err != nil {
		t.Fatal(err)
	}
	after := collect(t, l2, l2.AppendedIndex()-1)
	if len(after) != 1 || after[0] != testReport(9, 999) {
		t.Fatalf("tail after corruption = %+v", after)
	}
}

func TestCorruptSegmentBelowReplayOriginNotCounted(t *testing.T) {
	opt := DefaultOptions()
	opt.SegmentBytes = 256
	dir := t.TempDir()
	l := openTestLog(t, dir, opt)
	const n = 60
	for i := 0; i < n; i++ {
		if err := l.Append(testReport(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(fault.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(segs))
	}
	// Damage the second segment, then replay from where the third begins:
	// the damaged records all lie below the replay origin.
	data, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(segs[1], data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := openSegment(fault.OS(), segs[2])
	if err != nil {
		t.Fatal(err)
	}
	from := r.first
	r.f.Close()

	l2 := openTestLog(t, dir, opt)
	defer l2.Close()
	if st := l2.Stats(); st.CorruptSegments != 0 {
		t.Errorf("CorruptSegments after Open = %d, want 0 (Open reads no closed segment's frames)", st.CorruptSegments)
	}
	got := collect(t, l2, from)
	if len(got) != n-int(from) {
		t.Fatalf("Replay(%d) = %d records, want %d", from, len(got), n-int(from))
	}
	for i, r := range got {
		if want := testReport(0, int(from)+i); r != want {
			t.Fatalf("record %d = %+v, want %+v", i, r, want)
		}
	}
	if st := l2.Stats(); st.CorruptSegments != 0 || st.ReplaySkipped != 0 {
		t.Errorf("CorruptSegments = %d, ReplaySkipped = %d after replay above the damage, want 0 and 0",
			st.CorruptSegments, st.ReplaySkipped)
	}
}

// TestHeaderDamagedAfterOpenCountedAtReplay covers a segment whose header
// stops reading between Open and Replay: Replay treats it as damage from
// the segment's first index, counts it, and goes on with the next segment.
func TestHeaderDamagedAfterOpenCountedAtReplay(t *testing.T) {
	opt := DefaultOptions()
	opt.SegmentBytes = 256
	dir := t.TempDir()
	l := openTestLog(t, dir, opt)
	const n = 60
	for i := 0; i < n; i++ {
		if err := l.Append(testReport(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	defer l.Close()
	l.segMu.Lock()
	victim, next := l.segs[1], l.segs[2].first
	l.segMu.Unlock()
	if err := os.WriteFile(victim.path, []byte("not a wal segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	lost := next - victim.first
	if got := collect(t, l, 0); len(got) != n-int(lost) {
		t.Fatalf("replay = %d records, want %d", len(got), n-int(lost))
	}
	if st := l.Stats(); st.CorruptSegments != 1 || st.ReplaySkipped != lost {
		t.Errorf("CorruptSegments = %d, ReplaySkipped = %d; want 1 and %d",
			st.CorruptSegments, st.ReplaySkipped, lost)
	}
}

func TestUnreadableHeaderSegmentQuarantined(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, DefaultOptions())
	for i := 0; i < 5; i++ {
		if err := l.Append(testReport(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(fault.OS(), dir)
	if err := os.WriteFile(segs[0], []byte("not a wal segment"), 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := openTestLog(t, dir, DefaultOptions())
	defer l2.Close()
	if st := l2.Stats(); st.CorruptSegments == 0 {
		t.Error("quarantined segment not counted")
	}
	// The log starts over (nothing recoverable) but keeps the damaged file
	// aside for forensics.
	if err := l2.Append(testReport(3, 3)); err != nil {
		t.Fatal(err)
	}
	quarantined, err := filepath.Glob(filepath.Join(dir, "*.corrupt"))
	if err != nil || len(quarantined) != 1 {
		t.Errorf("quarantined files = %v (err %v)", quarantined, err)
	}
}

func TestSegmentNaming(t *testing.T) {
	l := &Log{dir: "/tmp/x"}
	p := l.segPath(7)
	if got := segCreation(p); got != 7 {
		t.Errorf("segCreation(%q) = %d, want 7", p, got)
	}
	if base := filepath.Base(p); base != fmt.Sprintf("wal-%016x.seg", 7) {
		t.Errorf("segment name = %q", base)
	}
}

// TestSegmentReaderFrameSizes reads frames that fit the reader's buffer,
// which next returns in place, and frames larger than it, which it copies
// out, interleaved, and checks each payload and the offset past it; a
// payload cut short by the end of the file is reported torn.
func TestSegmentReaderFrameSizes(t *testing.T) {
	seg := make([]byte, segHdrLen)
	copy(seg, segMagic)
	binary.LittleEndian.PutUint32(seg[len(segMagic):], segVersion)
	var payloads [][]byte
	for i, n := range []int{100, 1 << 17, 7, 1<<16 - frameHdr, 1 << 16, 3} {
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(i + j)
		}
		seg = binary.LittleEndian.AppendUint32(seg, uint32(n))
		seg = binary.LittleEndian.AppendUint32(seg, crc32.Checksum(p, castagnoli))
		seg = append(seg, p...)
		payloads = append(payloads, p)
	}
	path := filepath.Join(t.TempDir(), "wal-0000000000000000.seg")
	torn := binary.LittleEndian.AppendUint32(append([]byte{}, seg...), 1<<17)
	torn = append(binary.LittleEndian.AppendUint32(torn, 0), make([]byte, 1<<16)...)
	for _, tc := range []struct {
		file    []byte
		wantErr string
	}{{seg, "EOF"}, {torn, "wal: torn frame payload: unexpected EOF"}} {
		if err := os.WriteFile(path, tc.file, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := openSegment(fault.OS(), path)
		if err != nil {
			t.Fatal(err)
		}
		off := int64(segHdrLen)
		for i, want := range payloads {
			got, err := r.next()
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("frame %d (%d bytes): got %d bytes, err %v", i, len(want), len(got), err)
			}
			if off += int64(frameHdr + len(want)); r.off != off {
				t.Fatalf("frame %d: off %d, want %d", i, r.off, off)
			}
		}
		if _, err := r.next(); err == nil || err.Error() != tc.wantErr {
			t.Fatalf("after the last frame: err %v, want %q", err, tc.wantErr)
		}
		if r.off != off {
			t.Fatalf("off %d after the end, want %d", r.off, off)
		}
		r.f.Close()
	}
}
