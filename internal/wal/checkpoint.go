package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"itscs/internal/fault"
	"itscs/internal/mat"
)

// Checkpoint file layout ("checkpoint-<hex LogIndex>.ckpt"):
//
//	8 bytes  magic "ITSCSCKP"
//	u32      version (4; any other version is refused)
//	body     (CRC32C-protected):
//	  u64    LogIndex — replay origin: every record with index below this
//	         is reflected in the shard snapshots
//	  u32×3  Participants, WindowSlots, HopSlots — engine shape guard
//	  u32    shard count, then per shard:
//	    u32+bytes  fleet ID
//	    u64        Start (open window's first slot)
//	    u64        Seq (sequence the open window will get)
//	    u64        WarmSeq+1 (0 encodes "no warm state yet")
//	    5×matrix   SX SY VX VY EX rings, slot-major (mat binary framing)
//	    matrix     TS ingest-stamp ring (unix micros), slot-major
//	    u8         warm-present flag, then 4×matrix L/R factors per axis
//	  u32+bytes  opaque reputation-ledger blob; the WAL
//	             layer never interprets it, it just carries the bytes so
//	             the trust ledger shares the shards' crash consistency
//	u32      CRC32C of the body
//
// Version 4 stores the rings slot-major, (W+H)×Participants. Version 3
// had the same bytes but participant-major rings; its files are refused,
// not transposed, because when Participants = W+H the shape cannot tell
// the two orientations apart.
//
// Files are written to a temp name, fsynced, renamed into place, and the
// directory fsynced — a crash mid-write leaves either the old checkpoint
// set or the new one, never a half file under the real name.

const (
	ckptPrefix  = "checkpoint-"
	ckptSuffix  = ".ckpt"
	ckptMagic   = "ITSCSCKP"
	ckptVersion = 4
	// maxReputationBlob bounds the reputation section's claimed size before
	// allocation, like maxShards and maxFleetNameLen bound theirs.
	maxReputationBlob = 1 << 26
)

// ErrNoCheckpoint is returned by LatestCheckpoint when the directory holds
// no loadable checkpoint.
var ErrNoCheckpoint = errors.New("wal: no usable checkpoint")

// ShardCheckpoint is one fleet's frozen stream state: the ring-buffered
// sensory matrices, the open window's position, and the warm-start factors
// carried from the newest processed window.
type ShardCheckpoint struct {
	Fleet   string
	Start   int
	Seq     int
	WarmSeq int // -1 when no window has completed yet

	// SX, SY, VX, VY, EX are the ring buffers, slot-major: (W+H)×
	// Participants, slot s in row s mod (W+H).
	SX, SY, VX, VY, EX *mat.Dense

	// TS is the ingest-stamp ring (unix microseconds as float64, exact
	// below 2⁵³): the same shape as EX, zero where a cell is unstamped and
	// negated once a window close has aged the stamp. Every shard has
	// one: the writer refuses a nil TS, as Restore does.
	TS *mat.Dense

	// WarmLX/WarmRX and WarmLY/WarmRY are the per-axis L·Rᵀ factors; all
	// nil when the fleet has no warm state.
	WarmLX, WarmRX, WarmLY, WarmRY *mat.Dense
}

// Checkpoint is a consistent snapshot of the streaming engine's durable
// state. Records with log index >= LogIndex must be replayed on top of it;
// records below are already reflected in the shards (replaying them anyway
// is safe — they surface as duplicate-report rejections).
type Checkpoint struct {
	LogIndex     uint64
	Participants int
	WindowSlots  int
	HopSlots     int
	Shards       []ShardCheckpoint

	// Reputation is the trust ledger's serialized state, carried opaquely
	// (the WAL layer neither produces nor interprets it — the daemon fills
	// it from reputation.Ledger.MarshalBinary after Engine.Checkpoint and
	// restores it after Engine.Restore). Nil for engines running without a
	// ledger.
	Reputation []byte
}

// CheckpointPath names the file a checkpoint at the given log index is
// stored under.
func CheckpointPath(dir string, logIndex uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", ckptPrefix, logIndex, ckptSuffix))
}

// WriteCheckpoint atomically persists ck into dir and returns its path.
func WriteCheckpoint(dir string, ck *Checkpoint) (string, error) {
	return WriteCheckpointFS(fault.OS(), dir, ck)
}

// WriteCheckpointFS is WriteCheckpoint through an explicit filesystem seam,
// so the fault harness can tear or fail any step of the atomic protocol.
func WriteCheckpointFS(fsys fault.FS, dir string, ck *Checkpoint) (string, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("wal: %w", err)
	}
	tmp, err := fsys.CreateTemp(dir, ".tmp-checkpoint-*")
	if err != nil {
		return "", fmt.Errorf("wal: checkpoint temp: %w", err)
	}
	defer fsys.Remove(tmp.Name()) // no-op after the rename succeeds

	if err := writeCheckpointTo(tmp, ck); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", fmt.Errorf("wal: checkpoint sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return "", fmt.Errorf("wal: checkpoint close: %w", err)
	}
	path := CheckpointPath(dir, ck.LogIndex)
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		return "", fmt.Errorf("wal: checkpoint rename: %w", err)
	}
	if err := syncDir(fsys, dir); err != nil {
		return "", err
	}
	return path, nil
}

// crcWriter tees writes through a CRC32C.
type crcWriter struct {
	w   io.Writer
	crc hash.Hash32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc.Write(p[:n])
	return n, err
}

func writeCheckpointTo(w io.Writer, ck *Checkpoint) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	hdr := make([]byte, 0, len(ckptMagic)+4)
	hdr = append(hdr, ckptMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, ckptVersion)
	if _, err := bw.Write(hdr); err != nil {
		return fmt.Errorf("wal: checkpoint write: %w", err)
	}
	cw := &crcWriter{w: bw, crc: crc32.New(castagnoli)}

	writeU64 := func(v uint64) error {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		_, err := cw.Write(b[:])
		return err
	}
	writeU32 := func(v uint32) error {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		_, err := cw.Write(b[:])
		return err
	}

	if err := writeU64(ck.LogIndex); err != nil {
		return fmt.Errorf("wal: checkpoint write: %w", err)
	}
	for _, v := range [...]int{ck.Participants, ck.WindowSlots, ck.HopSlots, len(ck.Shards)} {
		if err := writeU32(uint32(v)); err != nil {
			return fmt.Errorf("wal: checkpoint write: %w", err)
		}
	}
	for i := range ck.Shards {
		sc := &ck.Shards[i]
		if err := writeU32(uint32(len(sc.Fleet))); err != nil {
			return fmt.Errorf("wal: checkpoint write: %w", err)
		}
		if _, err := io.WriteString(cw, sc.Fleet); err != nil {
			return fmt.Errorf("wal: checkpoint write: %w", err)
		}
		for _, v := range [...]uint64{uint64(sc.Start), uint64(sc.Seq), uint64(sc.WarmSeq + 1)} {
			if err := writeU64(v); err != nil {
				return fmt.Errorf("wal: checkpoint write: %w", err)
			}
		}
		for _, m := range [...]*mat.Dense{sc.SX, sc.SY, sc.VX, sc.VY, sc.EX} {
			if err := mat.WriteBinary(cw, m); err != nil {
				return fmt.Errorf("wal: checkpoint matrix: %w", err)
			}
		}
		if sc.TS == nil {
			return fmt.Errorf("wal: checkpoint shard %q has no stamp ring", sc.Fleet)
		}
		if err := mat.WriteBinary(cw, sc.TS); err != nil {
			return fmt.Errorf("wal: checkpoint stamp matrix: %w", err)
		}
		warm := sc.WarmLX != nil
		flag := byte(0)
		if warm {
			flag = 1
		}
		if _, err := cw.Write([]byte{flag}); err != nil {
			return fmt.Errorf("wal: checkpoint write: %w", err)
		}
		if warm {
			for _, m := range [...]*mat.Dense{sc.WarmLX, sc.WarmRX, sc.WarmLY, sc.WarmRY} {
				if err := mat.WriteBinary(cw, m); err != nil {
					return fmt.Errorf("wal: checkpoint warm matrix: %w", err)
				}
			}
		}
	}
	if len(ck.Reputation) > maxReputationBlob {
		return fmt.Errorf("wal: reputation blob %d bytes exceeds limit", len(ck.Reputation))
	}
	if err := writeU32(uint32(len(ck.Reputation))); err != nil {
		return fmt.Errorf("wal: checkpoint write: %w", err)
	}
	if _, err := cw.Write(ck.Reputation); err != nil {
		return fmt.Errorf("wal: checkpoint write: %w", err)
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], cw.crc.Sum32())
	if _, err := bw.Write(trailer[:]); err != nil {
		return fmt.Errorf("wal: checkpoint trailer: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("wal: checkpoint flush: %w", err)
	}
	return nil
}

// crcReader tees reads through a CRC32C.
type crcReader struct {
	r   io.Reader
	crc hash.Hash32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc.Write(p[:n])
	return n, err
}

// ReadCheckpointFS loads and verifies one checkpoint file through fsys.
func ReadCheckpointFS(fsys fault.FS, path string) (*Checkpoint, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal: checkpoint open: %w", err)
	}
	defer f.Close()
	return readCheckpointFrom(f, path)
}

// readCheckpointFrom decodes and verifies a checkpoint from a raw byte
// stream. Factored out of the file path so the fuzz target can feed it
// arbitrary bytes directly; path is only used in error messages.
func readCheckpointFrom(r io.Reader, path string) (*Checkpoint, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	hdr := make([]byte, len(ckptMagic)+4)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("wal: checkpoint header: %w", err)
	}
	if string(hdr[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("wal: bad checkpoint magic in %s", path)
	}
	version := binary.LittleEndian.Uint32(hdr[len(ckptMagic):])
	if version != ckptVersion {
		return nil, fmt.Errorf("wal: checkpoint version %d unsupported (want %d) in %s", version, ckptVersion, path)
	}
	cr := &crcReader{r: br, crc: crc32.New(castagnoli)}
	var err error

	readU64 := func() (uint64, error) {
		var b [8]byte
		if _, err := io.ReadFull(cr, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b[:]), nil
	}
	readU32 := func() (uint32, error) {
		var b [4]byte
		if _, err := io.ReadFull(cr, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(b[:]), nil
	}

	ck := &Checkpoint{}
	if ck.LogIndex, err = readU64(); err != nil {
		return nil, fmt.Errorf("wal: checkpoint body: %w", err)
	}
	var shape [4]uint32
	for i := range shape {
		if shape[i], err = readU32(); err != nil {
			return nil, fmt.Errorf("wal: checkpoint body: %w", err)
		}
	}
	ck.Participants, ck.WindowSlots, ck.HopSlots = int(shape[0]), int(shape[1]), int(shape[2])
	nShards := int(shape[3])
	const maxShards = 1 << 20
	if nShards > maxShards {
		return nil, fmt.Errorf("wal: implausible shard count %d", nShards)
	}
	for s := 0; s < nShards; s++ {
		var sc ShardCheckpoint
		flen, err := readU32()
		if err != nil {
			return nil, fmt.Errorf("wal: checkpoint shard: %w", err)
		}
		if flen > maxFleetNameLen {
			return nil, fmt.Errorf("wal: implausible fleet name length %d", flen)
		}
		name := make([]byte, flen)
		if _, err := io.ReadFull(cr, name); err != nil {
			return nil, fmt.Errorf("wal: checkpoint shard: %w", err)
		}
		sc.Fleet = string(name)
		var nums [3]uint64
		for i := range nums {
			if nums[i], err = readU64(); err != nil {
				return nil, fmt.Errorf("wal: checkpoint shard: %w", err)
			}
		}
		if nums[0] > math.MaxInt32 || nums[1] > math.MaxInt32 || nums[2] > math.MaxInt32+1 {
			return nil, fmt.Errorf("wal: implausible shard positions in %s", path)
		}
		sc.Start, sc.Seq, sc.WarmSeq = int(nums[0]), int(nums[1]), int(nums[2])-1
		mats := [...]**mat.Dense{&sc.SX, &sc.SY, &sc.VX, &sc.VY, &sc.EX}
		for _, mp := range mats {
			if *mp, err = mat.ReadBinary(cr); err != nil {
				return nil, fmt.Errorf("wal: checkpoint matrix: %w", err)
			}
		}
		if sc.TS, err = mat.ReadBinary(cr); err != nil {
			return nil, fmt.Errorf("wal: checkpoint stamp matrix: %w", err)
		}
		var flag [1]byte
		if _, err := io.ReadFull(cr, flag[:]); err != nil {
			return nil, fmt.Errorf("wal: checkpoint shard: %w", err)
		}
		if flag[0] == 1 {
			warm := [...]**mat.Dense{&sc.WarmLX, &sc.WarmRX, &sc.WarmLY, &sc.WarmRY}
			for _, mp := range warm {
				if *mp, err = mat.ReadBinary(cr); err != nil {
					return nil, fmt.Errorf("wal: checkpoint warm matrix: %w", err)
				}
			}
		} else if flag[0] != 0 {
			return nil, fmt.Errorf("wal: bad warm flag %d", flag[0])
		}
		ck.Shards = append(ck.Shards, sc)
	}
	blobLen, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("wal: checkpoint reputation: %w", err)
	}
	if blobLen > maxReputationBlob {
		return nil, fmt.Errorf("wal: implausible reputation blob length %d", blobLen)
	}
	if blobLen > 0 {
		ck.Reputation = make([]byte, blobLen)
		if _, err := io.ReadFull(cr, ck.Reputation); err != nil {
			return nil, fmt.Errorf("wal: checkpoint reputation: %w", err)
		}
	}
	sum := cr.crc.Sum32()
	var trailer [4]byte
	if _, err := io.ReadFull(br, trailer[:]); err != nil {
		return nil, fmt.Errorf("wal: checkpoint trailer: %w", err)
	}
	if want := binary.LittleEndian.Uint32(trailer[:]); want != sum {
		return nil, fmt.Errorf("wal: checkpoint checksum mismatch in %s", path)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("wal: trailing garbage after checkpoint in %s", path)
	}
	return ck, nil
}

// maxFleetNameLen mirrors the binary report codec's fleet-ID bound.
const maxFleetNameLen = 1 << 10

// listCheckpoints returns checkpoint paths sorted newest-first (the name
// embeds the zero-padded hex log index).
func listCheckpoints(fsys fault.FS, dir string) ([]string, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	var paths []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, ckptPrefix) && strings.HasSuffix(name, ckptSuffix) {
			paths = append(paths, filepath.Join(dir, name))
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(paths)))
	return paths, nil
}

// LatestCheckpoint loads the newest valid checkpoint in dir, skipping (and
// counting) corrupt ones. It returns ErrNoCheckpoint when none loads.
func LatestCheckpoint(dir string) (ck *Checkpoint, skippedCorrupt int, err error) {
	return LatestCheckpointFS(fault.OS(), dir)
}

// LatestCheckpointFS is LatestCheckpoint through an explicit filesystem seam.
func LatestCheckpointFS(fsys fault.FS, dir string) (ck *Checkpoint, skippedCorrupt int, err error) {
	paths, err := listCheckpoints(fsys, dir)
	if err != nil {
		return nil, 0, err
	}
	for _, p := range paths {
		ck, err := ReadCheckpointFS(fsys, p)
		if err != nil {
			skippedCorrupt++
			continue
		}
		return ck, skippedCorrupt, nil
	}
	return nil, skippedCorrupt, ErrNoCheckpoint
}

// PruneCheckpoints removes all but the newest `keep` checkpoints and
// returns how many were deleted. Old checkpoints are pure redundancy once
// a newer one exists, but keeping one spare guards against the newest
// being born corrupt.
func PruneCheckpoints(dir string, keep int) (int, error) {
	return PruneCheckpointsFS(fault.OS(), dir, keep)
}

// PruneCheckpointsFS is PruneCheckpoints through an explicit filesystem seam.
func PruneCheckpointsFS(fsys fault.FS, dir string, keep int) (int, error) {
	if keep < 1 {
		keep = 1
	}
	paths, err := listCheckpoints(fsys, dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, p := range paths[min(keep, len(paths)):] {
		if err := fsys.Remove(p); err != nil {
			return removed, fmt.Errorf("wal: prune checkpoint: %w", err)
		}
		removed++
	}
	if removed > 0 {
		if err := syncDir(fsys, dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}
