package wal

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"itscs/internal/fault"
	"itscs/internal/mat"
	"itscs/internal/mcs"
)

// FuzzDecodeRecord checks that the binary report decoder never panics on
// arbitrary bytes and that whatever it accepts round-trips through the
// encoder bit-exactly, whether or not the fleet matches the one passed in
// for reuse (the first decode offers the seeds' "cab", the second the
// decoded fleet itself).
func FuzzDecodeRecord(f *testing.F) {
	seed := func(r mcs.Report) { f.Add(r.AppendBinary(nil)) }
	seed(mcs.Report{Fleet: "cab", Participant: 3, Slot: 17, X: 1.5, Y: -2.5, VX: 0.25, VY: -0.125})
	seed(mcs.Report{}) // empty fleet, zero everything
	seed(mcs.Report{Fleet: "x", X: math.NaN(), Y: math.Inf(1), VX: math.Inf(-1), VY: -0.0})
	seed(mcs.Report{Fleet: "fleet-with-a-long-name", Participant: 1 << 20, Slot: 1 << 20, X: 1e308})
	seed(mcs.Report{Fleet: "cab", Participant: 4, Slot: 9, X: 2, IngestUnixMicro: 1_700_000_000_000_000, Origin: mcs.OriginRouter, TraceID: 1<<64 - 1})
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x7F, 2, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}) // huge uvarint
	f.Add([]byte{0xFF, 0x7F, 2, 0x03, 'c', 'a'})                                             // truncated fleet
	f.Add(append([]byte{0x03, 'c', 'a', 'b', 1, 2}, make([]byte, 32)...))                    // no sentinel

	f.Fuzz(func(t *testing.T, data []byte) {
		var r mcs.Report
		n, err := mcs.DecodeBinary(data, "cab", &r)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		enc := r.AppendBinary(nil)
		var back mcs.Report
		m, err := mcs.DecodeBinary(enc, r.Fleet, &back)
		if err != nil {
			t.Fatalf("re-decode own encoding: %v", err)
		}
		if m != len(enc) {
			t.Fatalf("re-decode consumed %d of %d bytes", m, len(enc))
		}
		if back.Fleet != r.Fleet || back.Participant != r.Participant || back.Slot != r.Slot ||
			back.IngestUnixMicro != r.IngestUnixMicro || back.Origin != r.Origin || back.TraceID != r.TraceID {
			t.Fatalf("round trip changed identity or stamp: %+v -> %+v", r, back)
		}
		pairs := [4][2]float64{{r.X, back.X}, {r.Y, back.Y}, {r.VX, back.VX}, {r.VY, back.VY}}
		for i, p := range pairs {
			// Bit-exact comparison: NaN payloads and signed zeros must survive.
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				t.Fatalf("round trip changed value %d: %x -> %x", i, math.Float64bits(p[0]), math.Float64bits(p[1]))
			}
		}
	})
}

// FuzzReadCheckpoint checks that the checkpoint decoder never panics or
// over-allocates on arbitrary bytes — a half-written or bit-flipped
// checkpoint file must come back as an error, never take the recovery
// path down — and that accepted checkpoints round-trip structurally.
func FuzzReadCheckpoint(f *testing.F) {
	smallMat := func(v float64) *mat.Dense { return mat.Filled(2, 3, v) }
	ck := &Checkpoint{
		LogIndex:     42,
		Participants: 2,
		WindowSlots:  2,
		HopSlots:     1,
		Shards: []ShardCheckpoint{{
			Fleet: "cab", Start: 4, Seq: 2, WarmSeq: 1,
			SX: smallMat(1), SY: smallMat(2), VX: smallMat(3), VY: smallMat(4), EX: smallMat(1), TS: smallMat(1.7e15),
			WarmLX: smallMat(5), WarmRX: smallMat(6), WarmLY: smallMat(7), WarmRY: smallMat(8),
		}, {
			Fleet: "", Start: 0, Seq: 0, WarmSeq: -1,
			SX: smallMat(0), SY: smallMat(0), VX: smallMat(0), VY: smallMat(0), EX: smallMat(0), TS: smallMat(0),
		}},
	}
	var buf bytes.Buffer
	if err := writeCheckpointTo(&buf, ck); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)/2])             // torn write
	f.Add(append([]byte{}, good[:12]...)) // header only
	f.Add([]byte("ITSCSCKP"))             // magic, no version
	f.Add([]byte{})
	flipped := append([]byte{}, good...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped) // checksum must catch this

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := readCheckpointFrom(bytes.NewReader(data), "fuzz")
		if err != nil {
			return // rejected input is fine; panics are not
		}
		var buf bytes.Buffer
		if err := writeCheckpointTo(&buf, ck); err != nil {
			t.Fatalf("re-encode accepted checkpoint: %v", err)
		}
		back, err := readCheckpointFrom(&buf, "fuzz-reencode")
		if err != nil {
			t.Fatalf("re-decode own encoding: %v", err)
		}
		if back.LogIndex != ck.LogIndex || len(back.Shards) != len(ck.Shards) ||
			back.Participants != ck.Participants || back.WindowSlots != ck.WindowSlots ||
			back.HopSlots != ck.HopSlots {
			t.Fatalf("round trip changed structure: %+v -> %+v", ck, back)
		}
		for i := range ck.Shards {
			if back.Shards[i].Fleet != ck.Shards[i].Fleet ||
				back.Shards[i].Seq != ck.Shards[i].Seq ||
				back.Shards[i].WarmSeq != ck.Shards[i].WarmSeq {
				t.Fatalf("round trip changed shard %d", i)
			}
		}
	})
}

// FuzzReadSegment writes a valid segment header followed by arbitrary
// bytes as the log's only segment, then opens and replays it. Open must
// succeed on any tail (it truncates whatever does not frame), every
// committed index must come back either replayed or counted as skipped,
// and a second Open must find nothing left to truncate.
func FuzzReadSegment(f *testing.F) {
	dir := f.TempDir()
	l, err := Open(dir, DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range []mcs.Report{
		{Fleet: "cab", Participant: 0, Slot: 6, X: 1, Y: 2, VX: 0.5},
		{Fleet: "cab", Participant: 1, Slot: 7, X: 3, Y: 4,
			IngestUnixMicro: 1_700_000_000_000_000, Origin: mcs.OriginRouter, TraceID: 0xfeed},
		{Fleet: "bus", Participant: 2, Slot: 7, X: -1, Y: -2, VY: -0.25},
	} {
		if err := l.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	segs, err := listSegments(fault.OS(), dir)
	if err != nil || len(segs) != 1 {
		f.Fatalf("segments %v: %v", segs, err)
	}
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		f.Fatal(err)
	}
	hdr, body := seg[:segHdrLen], seg[segHdrLen:]
	f.Add(body)
	f.Add(body[:len(body)-3]) // torn payload
	f.Add(body[:frameHdr-2])  // torn frame header
	flipped := append([]byte{}, body...)
	flipped[len(flipped)-1] ^= 0x40
	f.Add(flipped) // checksum must catch this
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, filepath.Base(segs[0]))
		if err := os.WriteFile(path, append(append([]byte{}, hdr...), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, DefaultOptions())
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		replayed, err := l.Replay(0, func(uint64, mcs.Report) error { return nil })
		if err != nil {
			t.Fatalf("Replay: %v", err)
		}
		idx := l.AppendedIndex()
		if st := l.Stats(); replayed+st.ReplaySkipped != idx {
			t.Fatalf("replayed %d + skipped %d != AppendedIndex %d", replayed, st.ReplaySkipped, idx)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(dir, DefaultOptions())
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer l2.Close()
		if st := l2.Stats(); st.TruncatedBytes != 0 {
			t.Fatalf("second Open truncated %d bytes", st.TruncatedBytes)
		}
		if got := l2.AppendedIndex(); got != idx {
			t.Fatalf("second Open AppendedIndex = %d, want %d", got, idx)
		}
	})
}
