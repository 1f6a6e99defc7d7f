package reputation

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// The ledger blob rides inside the shard checkpoint format (wal.Checkpoint
// carries it as an opaque length-prefixed section), so it needs
// the same properties as the checkpoint body: fully deterministic bytes —
// fleets sorted by name, floats via Float64bits — and a strict reader.
// Determinism is what makes the crash-recovery invariant checkable as
// plain byte equality: restore + WAL replay must reproduce the exact blob
// the uninterrupted run would have written.

const (
	blobMagic   = "ITSCSREP"
	blobVersion = 1
)

// ErrBadBlob is wrapped by every Restore decoding error.
var ErrBadBlob = errors.New("reputation: bad ledger blob")

// MarshalBinary serializes the ledger deterministically: two ledgers with
// equal state produce byte-identical blobs, so equality checks (and the
// sim's crash-recovery invariant) compare blobs directly.
func (l *Ledger) MarshalBinary() ([]byte, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	buf := make([]byte, 0, 64)
	buf = append(buf, blobMagic...)
	buf = binary.BigEndian.AppendUint16(buf, blobVersion)
	buf = binary.BigEndian.AppendUint64(buf, l.folded)
	buf = binary.BigEndian.AppendUint64(buf, l.skipped)
	buf = append(buf, numStates)
	for from := 0; from < numStates; from++ {
		for to := 0; to < numStates; to++ {
			buf = binary.BigEndian.AppendUint64(buf, l.transitions[from][to])
		}
	}
	names := make([]string, 0, len(l.fleets))
	for name := range l.fleets {
		names = append(names, name)
	}
	sort.Strings(names)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(names)))
	for _, name := range names {
		fl := l.fleets[name]
		if len(name) > math.MaxUint16 {
			return nil, fmt.Errorf("reputation: fleet name %d bytes exceeds format limit", len(name))
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(name)))
		buf = append(buf, name...)
		buf = binary.BigEndian.AppendUint64(buf, uint64(int64(fl.lastSeq)))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(fl.parts)))
		for i := range fl.parts {
			p := &fl.parts[i]
			buf = append(buf, byte(p.state))
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(p.weight))
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(p.faultMass))
			buf = binary.BigEndian.AppendUint64(buf, p.windows)
			buf = binary.BigEndian.AppendUint64(buf, p.observed)
			buf = binary.BigEndian.AppendUint64(buf, p.flagged)
			buf = binary.BigEndian.AppendUint64(buf, p.flips)
		}
	}
	return buf, nil
}

// blobReader is a strict cursor over the blob.
type blobReader struct {
	b   []byte
	off int
}

func (r *blobReader) take(n int) ([]byte, error) {
	if r.off+n > len(r.b) {
		return nil, fmt.Errorf("%w: truncated at offset %d (need %d of %d bytes)",
			ErrBadBlob, r.off, n, len(r.b))
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *blobReader) u8() (byte, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *blobReader) u16() (uint16, error) {
	b, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(b), nil
}

func (r *blobReader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (r *blobReader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

// Restore replaces the ledger's state with the blob's. The configuration is
// not serialized: the blob restores onto a ledger built with the same
// Config, which the daemon guarantees by deriving both from its flags. An
// empty or nil blob resets the ledger (a cold start, or a checkpoint
// written without a ledger — folds then rebuild from the replayed WAL
// tail onward).
func (l *Ledger) Restore(blob []byte) error {
	if len(blob) == 0 {
		l.mu.Lock()
		l.fleets = make(map[string]*fleetLedger)
		l.transitions = [numStates][numStates]uint64{}
		l.folded, l.skipped = 0, 0
		l.mu.Unlock()
		return nil
	}
	r := &blobReader{b: blob}
	magic, err := r.take(len(blobMagic))
	if err != nil {
		return err
	}
	if string(magic) != blobMagic {
		return fmt.Errorf("%w: magic %q", ErrBadBlob, magic)
	}
	version, err := r.u16()
	if err != nil {
		return err
	}
	if version != blobVersion {
		return fmt.Errorf("%w: version %d, want %d", ErrBadBlob, version, blobVersion)
	}
	folded, err := r.u64()
	if err != nil {
		return err
	}
	skipped, err := r.u64()
	if err != nil {
		return err
	}
	states, err := r.u8()
	if err != nil {
		return err
	}
	if states != numStates {
		return fmt.Errorf("%w: %d states, want %d", ErrBadBlob, states, numStates)
	}
	var transitions [numStates][numStates]uint64
	for from := 0; from < numStates; from++ {
		for to := 0; to < numStates; to++ {
			if transitions[from][to], err = r.u64(); err != nil {
				return err
			}
		}
	}
	fleetCount, err := r.u32()
	if err != nil {
		return err
	}
	fleets := make(map[string]*fleetLedger, fleetCount)
	for f := uint32(0); f < fleetCount; f++ {
		nameLen, err := r.u16()
		if err != nil {
			return err
		}
		nameBytes, err := r.take(int(nameLen))
		if err != nil {
			return err
		}
		name := string(nameBytes)
		if _, dup := fleets[name]; dup {
			return fmt.Errorf("%w: duplicate fleet %q", ErrBadBlob, name)
		}
		lastSeqBits, err := r.u64()
		if err != nil {
			return err
		}
		partCount, err := r.u32()
		if err != nil {
			return err
		}
		// Bound the allocation by what the blob can actually hold (53
		// bytes per row) instead of trusting the header.
		if int(partCount) > len(blob)/53+1 {
			return fmt.Errorf("%w: fleet %q claims %d rows in a %d-byte blob",
				ErrBadBlob, name, partCount, len(blob))
		}
		fl := &fleetLedger{
			lastSeq: int(int64(lastSeqBits)),
			parts:   make([]participant, partCount),
		}
		for i := range fl.parts {
			p := &fl.parts[i]
			st, err := r.u8()
			if err != nil {
				return err
			}
			if st >= numStates {
				return fmt.Errorf("%w: fleet %q row %d state %d", ErrBadBlob, name, i, st)
			}
			p.state = State(st)
			wBits, err := r.u64()
			if err != nil {
				return err
			}
			fBits, err := r.u64()
			if err != nil {
				return err
			}
			p.weight = math.Float64frombits(wBits)
			p.faultMass = math.Float64frombits(fBits)
			if math.IsNaN(p.weight) || math.IsInf(p.weight, 0) ||
				math.IsNaN(p.faultMass) || math.IsInf(p.faultMass, 0) {
				return fmt.Errorf("%w: fleet %q row %d non-finite masses", ErrBadBlob, name, i)
			}
			if p.windows, err = r.u64(); err != nil {
				return err
			}
			if p.observed, err = r.u64(); err != nil {
				return err
			}
			if p.flagged, err = r.u64(); err != nil {
				return err
			}
			if p.flips, err = r.u64(); err != nil {
				return err
			}
		}
		fleets[name] = fl
	}
	if r.off != len(blob) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadBlob, len(blob)-r.off)
	}
	l.mu.Lock()
	l.fleets = fleets
	l.transitions = transitions
	l.folded, l.skipped = folded, skipped
	l.mu.Unlock()
	return nil
}
