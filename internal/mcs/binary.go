package mcs

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary report encoding, used as the payload of one write-ahead-log frame.
// Two layouts share the wire (all little-endian):
//
// v1 — an unstamped report:
//
//	uvarint  fleet length, then that many bytes of fleet ID
//	uvarint  participant
//	uvarint  slot
//	8 bytes  X   (IEEE-754 bits)
//	8 bytes  Y
//	8 bytes  VX
//	8 bytes  VY
//
// v2 — a report carrying a freshness stamp:
//
//	0xFF 0x7F  version sentinel (see below)
//	uvarint    format version (2)
//	…v1 body…
//	uvarint    IngestUnixMicro
//	1 byte     Origin
//	8 bytes    TraceID
//
// The sentinel makes the two layouts unambiguous: read as a v1 fleet
// length, the bytes {0xFF, 0x7F} decode to 16383, which exceeds
// maxFleetLen, so no valid v1 frame can begin with them. Unstamped reports
// still encode as plain v1, so pre-upgrade logs, fuzz corpora and mixed
// clusters keep byte-identical round trips, and old decoders keep reading
// everything a stamp-free writer produces. Old v1 frames decode with a
// zero stamp.
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

// binVersionStamped is the wire version of the stamped (v2) layout.
const binVersionStamped = 2

// binSentinel prefixes every versioned (v2+) frame.
var binSentinel = [2]byte{0xFF, 0x7F}

// AppendBinary appends the report's binary encoding to dst and returns the
// extended slice. Unstamped reports use the v1 layout; a report with any
// stamp field set uses v2.
func (r Report) AppendBinary(dst []byte) []byte {
	if r.IngestUnixMicro == 0 && r.Origin == OriginUnknown && r.TraceID == 0 {
		return r.appendBodyV1(dst)
	}
	dst = append(dst, binSentinel[0], binSentinel[1])
	dst = binary.AppendUvarint(dst, binVersionStamped)
	dst = r.appendBodyV1(dst)
	dst = binary.AppendUvarint(dst, uint64(r.IngestUnixMicro))
	dst = append(dst, byte(r.Origin))
	dst = binary.LittleEndian.AppendUint64(dst, r.TraceID)
	return dst
}

func (r Report) appendBodyV1(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r.Fleet)))
	dst = append(dst, r.Fleet...)
	dst = binary.AppendUvarint(dst, uint64(r.Participant))
	dst = binary.AppendUvarint(dst, uint64(r.Slot))
	for _, v := range [...]float64{r.X, r.Y, r.VX, r.VY} {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodeBinary parses one binary-encoded report from the front of b into
// r, returning the number of bytes consumed. It accepts both layouts — v1
// frames yield a zero stamp — and rejects unknown future versions. It
// never panics on malformed input and rejects trailing garbage only
// implicitly (callers compare n to the frame's payload length); on error
// r is left partly written. When the encoded fleet equals fleet, the
// report shares that string rather than allocating a copy: a reader of
// many records passes the previous one's.
func DecodeBinary(b []byte, fleet string, r *Report) (n int, err error) {
	if len(b) >= 2 && b[0] == binSentinel[0] && b[1] == binSentinel[1] {
		return decodeStamped(b, fleet, r)
	}
	r.IngestUnixMicro, r.Origin, r.TraceID = 0, OriginUnknown, 0
	return decodeBodyV1(b, fleet, r)
}

func decodeStamped(b []byte, fleet string, r *Report) (n int, err error) {
	n = 2 // sentinel
	v, k := binary.Uvarint(b[n:])
	if k <= 0 {
		return 0, fmt.Errorf("mcs: bad version in binary report")
	}
	if v != binVersionStamped {
		return 0, fmt.Errorf("mcs: unsupported binary report version %d", v)
	}
	n += k
	if k, err = decodeBodyV1(b[n:], fleet, r); err != nil {
		return 0, err
	}
	n += k

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

// decodeBodyV1 writes the v1 body's fields of r; the stamp fields are the
// caller's.
func decodeBodyV1(b []byte, fleet string, r *Report) (n int, err error) {
	flen, k := binary.Uvarint(b)
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
	return n, nil
}
