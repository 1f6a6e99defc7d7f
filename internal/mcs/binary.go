package mcs

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary report encoding, the payload of one write-ahead-log frame and of
// one router→backend frame (all little-endian):
//
//	0xFF 0x7F  sentinel
//	uvarint    format version (2)
//	uvarint    fleet length, then that many bytes of fleet ID
//	uvarint    participant
//	uvarint    slot
//	8 bytes    X   (IEEE-754 bits)
//	8 bytes    Y
//	8 bytes    VX
//	8 bytes    VY
//	uvarint    IngestUnixMicro
//	1 byte     Origin
//	8 bytes    TraceID
//
// Every report encodes in this one layout; an unstamped report carries a
// zero stamp. The sentinel and version 2 are what tell it from the
// unstamped layout written before stamps existed, which began directly
// with the fleet length: read as one, the bytes {0xFF, 0x7F} decode to
// 16383, above maxFleetLen. The decoder refuses a payload without them, so
// such a record is skipped and counted at replay, and a frame holding one
// is acked "err bad frame".
//
// The encoding is self-delimiting, so frames need only protect it with a
// length and checksum. Payload values round-trip bit-exactly, including the
// non-finite ones ingestion rejects: the log is a transport, not a
// validator, and replay pushes records back through the same Ingest checks
// the live path applies.

// maxFleetLen bounds the fleet-ID length a decoder will accept, mirroring
// what any sane deployment would configure and keeping a corrupt length
// byte from driving a huge allocation.
const maxFleetLen = 1 << 10

// binVersion is the wire version that follows the sentinel.
const binVersion = 2

// binSentinel opens every binary report.
var binSentinel = [2]byte{0xFF, 0x7F}

// AppendBinary appends the report's binary encoding to dst and returns the
// extended slice.
func (r Report) AppendBinary(dst []byte) []byte {
	dst = append(dst, binSentinel[0], binSentinel[1])
	dst = binary.AppendUvarint(dst, binVersion)
	dst = binary.AppendUvarint(dst, uint64(len(r.Fleet)))
	dst = append(dst, r.Fleet...)
	dst = binary.AppendUvarint(dst, uint64(r.Participant))
	dst = binary.AppendUvarint(dst, uint64(r.Slot))
	for _, v := range [...]float64{r.X, r.Y, r.VX, r.VY} {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	dst = binary.AppendUvarint(dst, uint64(r.IngestUnixMicro))
	dst = append(dst, byte(r.Origin))
	return binary.LittleEndian.AppendUint64(dst, r.TraceID)
}

// DecodeBinary parses one binary-encoded report from the front of b into
// r, returning the number of bytes consumed. It refuses a payload without
// the sentinel and any version but binVersion. It never panics on
// malformed input and rejects trailing garbage only implicitly (callers
// compare n to the frame's payload length); on error r is left partly
// written. When the encoded fleet equals fleet, the report shares that
// string rather than allocating a copy: a reader of many records passes
// the previous one's.
func DecodeBinary(b []byte, fleet string, r *Report) (n int, err error) {
	if len(b) < 2 || b[0] != binSentinel[0] || b[1] != binSentinel[1] {
		return 0, fmt.Errorf("mcs: binary report without version sentinel")
	}
	n = 2
	v, k := binary.Uvarint(b[n:])
	if k <= 0 {
		return 0, fmt.Errorf("mcs: bad version in binary report")
	}
	if v != binVersion {
		return 0, fmt.Errorf("mcs: unsupported binary report version %d", v)
	}
	n += k

	flen, k := binary.Uvarint(b[n:])
	if k <= 0 || flen > maxFleetLen {
		return 0, fmt.Errorf("mcs: bad fleet length in binary report")
	}
	n += k
	if uint64(len(b)-n) < flen {
		return 0, fmt.Errorf("mcs: truncated fleet in binary report")
	}
	if name := b[n : n+int(flen)]; string(name) == fleet {
		r.Fleet = fleet
	} else {
		r.Fleet = string(name)
	}
	n += int(flen)

	p, k := binary.Uvarint(b[n:])
	if k <= 0 || p > math.MaxInt32 {
		return 0, fmt.Errorf("mcs: bad participant in binary report")
	}
	r.Participant = int(p)
	n += k
	s, k := binary.Uvarint(b[n:])
	if k <= 0 || s > math.MaxInt32 {
		return 0, fmt.Errorf("mcs: bad slot in binary report")
	}
	r.Slot = int(s)
	n += k

	if len(b)-n < 32 {
		return 0, fmt.Errorf("mcs: truncated values in binary report")
	}
	vals := [4]float64{}
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[n:]))
		n += 8
	}
	r.X, r.Y, r.VX, r.VY = vals[0], vals[1], vals[2], vals[3]

	us, k := binary.Uvarint(b[n:])
	if k <= 0 {
		return 0, fmt.Errorf("mcs: bad ingest stamp in binary report")
	}
	r.IngestUnixMicro = int64(us)
	n += k
	if len(b)-n < 1+8 {
		return 0, fmt.Errorf("mcs: truncated stamp in binary report")
	}
	r.Origin = Origin(b[n])
	n++
	r.TraceID = binary.LittleEndian.Uint64(b[n:])
	n += 8
	return n, nil
}
