package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"itscs/internal/fault"
	"itscs/internal/mat"
)

// fixtureCheckpoint builds a two-shard checkpoint with distinctive values.
func fixtureCheckpoint() *Checkpoint {
	ring := func(seed float64) *mat.Dense {
		m := mat.New(3, 6)
		m.Apply(func(i, j int, _ float64) float64 { return seed + float64(10*i+j) })
		return m
	}
	factors := func(seed float64) *mat.Dense {
		m := mat.New(3, 2)
		m.Apply(func(i, j int, _ float64) float64 { return seed * float64(i+j+1) })
		return m
	}
	return &Checkpoint{
		LogIndex:     1234,
		Participants: 3,
		WindowSlots:  4,
		HopSlots:     2,
		Shards: []ShardCheckpoint{
			{
				Fleet: "cab", Start: 8, Seq: 4, WarmSeq: 3,
				SX: ring(1), SY: ring(2), VX: ring(3), VY: ring(4), EX: ring(0),
				TS:     ring(1e6),
				WarmLX: factors(1.5), WarmRX: factors(2.5),
				WarmLY: factors(3.5), WarmRY: factors(4.5),
			},
			{
				// No warm state yet, empty fleet name (the default fleet).
				Fleet: "", Start: 0, Seq: 0, WarmSeq: -1,
				SX: ring(9), SY: ring(8), VX: ring(7), VY: ring(6), EX: ring(5),
			},
		},
	}
}

func matEqual(a, b *mat.Dense) bool {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc {
		return false
	}
	for i := 0; i < ar; i++ {
		for j := 0; j < ac; j++ {
			if a.At(i, j) != b.At(i, j) {
				return false
			}
		}
	}
	return true
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ck := fixtureCheckpoint()
	path, err := WriteCheckpoint(dir, ck)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir {
		t.Fatalf("checkpoint written outside dir: %s", path)
	}
	back, err := ReadCheckpointFS(fault.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	if back.LogIndex != ck.LogIndex || back.Participants != ck.Participants ||
		back.WindowSlots != ck.WindowSlots || back.HopSlots != ck.HopSlots {
		t.Fatalf("header mismatch: %+v", back)
	}
	if len(back.Shards) != len(ck.Shards) {
		t.Fatalf("shards = %d, want %d", len(back.Shards), len(ck.Shards))
	}
	for i := range ck.Shards {
		want, got := &ck.Shards[i], &back.Shards[i]
		if got.Fleet != want.Fleet || got.Start != want.Start || got.Seq != want.Seq || got.WarmSeq != want.WarmSeq {
			t.Fatalf("shard %d scalars = %+v", i, got)
		}
		pairs := [][2]*mat.Dense{
			{got.SX, want.SX}, {got.SY, want.SY}, {got.VX, want.VX},
			{got.VY, want.VY}, {got.EX, want.EX},
		}
		for k, p := range pairs {
			if !matEqual(p[0], p[1]) {
				t.Fatalf("shard %d ring %d mismatch", i, k)
			}
		}
		// A nil TS ring writes (and reads back) as all-zero, same shape.
		wantTS := want.TS
		if wantTS == nil {
			wantTS = mat.New(3, 6)
		}
		if got.TS == nil || !matEqual(got.TS, wantTS) {
			t.Fatalf("shard %d TS ring mismatch", i)
		}
		if want.WarmLX == nil {
			if got.WarmLX != nil {
				t.Fatalf("shard %d grew warm state", i)
			}
			continue
		}
		warm := [][2]*mat.Dense{
			{got.WarmLX, want.WarmLX}, {got.WarmRX, want.WarmRX},
			{got.WarmLY, want.WarmLY}, {got.WarmRY, want.WarmRY},
		}
		for k, p := range warm {
			if !matEqual(p[0], p[1]) {
				t.Fatalf("shard %d warm factor %d mismatch", i, k)
			}
		}
	}
}

// TestCheckpointReputationRoundTrip pins the version-2 section: the opaque
// ledger blob survives the write/read cycle byte for byte.
func TestCheckpointReputationRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ck := fixtureCheckpoint()
	ck.Reputation = []byte("ITSCSREP-opaque-ledger-bytes\x00\x01\x02")
	path, err := WriteCheckpoint(dir, ck)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadCheckpointFS(fault.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	if string(back.Reputation) != string(ck.Reputation) {
		t.Fatalf("reputation blob = %q, want %q", back.Reputation, ck.Reputation)
	}
	// An empty blob reads back nil (the no-ledger daemon's checkpoints).
	ck.Reputation = nil
	path, err = WriteCheckpoint(dir, ck)
	if err != nil {
		t.Fatal(err)
	}
	if back, err = ReadCheckpointFS(fault.OS(), path); err != nil || back.Reputation != nil {
		t.Fatalf("nil blob round trip: rep=%v err=%v", back.Reputation, err)
	}
}

// checkVersionRefused patches the header of a good checkpoint to version
// and checks the file is refused with an error naming the version, and
// that LatestCheckpoint skips and counts it like any other unreadable one.
func checkVersionRefused(t *testing.T, version uint32) {
	t.Helper()
	dir := t.TempDir()
	path, err := WriteCheckpoint(dir, fixtureCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[len(ckptMagic):], version)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = ReadCheckpointFS(fault.OS(), path)
	if err == nil {
		t.Fatalf("version-%d checkpoint loaded", version)
	}
	if want := fmt.Sprintf("checkpoint version %d unsupported", version); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the version (want %q)", err, want)
	}
	if _, skipped, err := LatestCheckpoint(dir); !errors.Is(err, ErrNoCheckpoint) || skipped != 1 {
		t.Fatalf("LatestCheckpoint = skipped %d, err %v; want 1 skipped and ErrNoCheckpoint", skipped, err)
	}
}

// TestCheckpointV1Compat: the version-1 layout (no reputation or
// stamp-ring sections) is retired, so its header is refused.
func TestCheckpointV1Compat(t *testing.T) { checkVersionRefused(t, 1) }

// TestCheckpointV2Compat: the version-2 layout (reputation blob, no
// stamp rings) is retired, so its header is refused.
func TestCheckpointV2Compat(t *testing.T) { checkVersionRefused(t, 2) }

// TestCheckpointV3Compat: the version-3 layout (participant-major rings)
// is retired, so its header is refused; with as many participants as ring
// slots its rings would pass for slot-major ones.
func TestCheckpointV3Compat(t *testing.T) { checkVersionRefused(t, 3) }

// TestCheckpointRefusesOtherVersions: versions that never existed, below
// and above the current one, are refused the same way.
func TestCheckpointRefusesOtherVersions(t *testing.T) {
	for _, version := range []uint32{0, 5} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			checkVersionRefused(t, version)
		})
	}
}

func TestLatestCheckpointPicksNewestSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	old := fixtureCheckpoint()
	old.LogIndex = 100
	if _, err := WriteCheckpoint(dir, old); err != nil {
		t.Fatal(err)
	}
	newer := fixtureCheckpoint()
	newer.LogIndex = 200
	newPath, err := WriteCheckpoint(dir, newer)
	if err != nil {
		t.Fatal(err)
	}

	ck, skipped, err := LatestCheckpoint(dir)
	if err != nil || skipped != 0 || ck.LogIndex != 200 {
		t.Fatalf("latest = %v skipped %d err %v, want index 200", ck, skipped, err)
	}

	// Corrupt the newest: recovery must fall back to the older one.
	data, err := os.ReadFile(newPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(newPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, skipped, err = LatestCheckpoint(dir)
	if err != nil || skipped != 1 || ck.LogIndex != 100 {
		t.Fatalf("fallback = %v skipped %d err %v, want index 100 skipped 1", ck, skipped, err)
	}

	// A truncated file is also just skipped.
	if err := os.Truncate(newPath, 40); err != nil {
		t.Fatal(err)
	}
	if _, skipped, err = LatestCheckpoint(dir); err != nil || skipped != 1 {
		t.Fatalf("truncated skip = %d err %v", skipped, err)
	}
}

func TestLatestCheckpointEmpty(t *testing.T) {
	if _, _, err := LatestCheckpoint(t.TempDir()); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
	// A directory that does not exist yet is the same as an empty one.
	if _, _, err := LatestCheckpoint(filepath.Join(t.TempDir(), "nope")); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("missing dir err = %v, want ErrNoCheckpoint", err)
	}
}

func TestPruneCheckpoints(t *testing.T) {
	dir := t.TempDir()
	for _, idx := range []uint64{10, 20, 30, 40} {
		ck := fixtureCheckpoint()
		ck.LogIndex = idx
		if _, err := WriteCheckpoint(dir, ck); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := PruneCheckpoints(dir, 2)
	if err != nil || removed != 2 {
		t.Fatalf("removed = %d err %v, want 2", removed, err)
	}
	paths, err := listCheckpoints(fault.OS(), dir)
	if err != nil || len(paths) != 2 {
		t.Fatalf("paths = %v err %v", paths, err)
	}
	ck, _, err := LatestCheckpoint(dir)
	if err != nil || ck.LogIndex != 40 {
		t.Fatalf("latest after prune = %v err %v", ck, err)
	}
	// No temp files may linger.
	tmps, _ := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if len(tmps) != 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
}
