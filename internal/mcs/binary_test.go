package mcs

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestBinaryRoundTrip(t *testing.T) {
	reports := []Report{
		{Fleet: "cab", Participant: 7, Slot: 42, X: 1.5, Y: -2.25, VX: 0.5, VY: -0.125},
		{Fleet: "cab", Participant: 8, Slot: 42, IngestUnixMicro: 1_700_000_000_000_000, Origin: OriginRouter, TraceID: 9},
		{}, // empty fleet, all zero
		{Fleet: "f", Participant: 1 << 20, Slot: 1 << 20, X: 1e308, Y: -1e308},
		{Fleet: "weird", X: math.NaN(), Y: math.Inf(1), VX: math.Inf(-1), VY: math.Copysign(0, -1)},
	}
	var buf []byte
	for _, r := range reports {
		buf = r.AppendBinary(buf)
	}
	// One report is decoded into again and again, as the log's replay
	// does: a v1 record after a stamped one must read back unstamped.
	var got Report
	for i, want := range reports {
		n, err := DecodeBinary(buf, got.Fleet, &got)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		buf = buf[n:]
		if got.Fleet != want.Fleet || got.Participant != want.Participant || got.Slot != want.Slot ||
			got.IngestUnixMicro != want.IngestUnixMicro || got.Origin != want.Origin || got.TraceID != want.TraceID {
			t.Fatalf("record %d identity: %+v != %+v", i, got, want)
		}
		pairs := [4][2]float64{{want.X, got.X}, {want.Y, got.Y}, {want.VX, got.VX}, {want.VY, got.VY}}
		for k, p := range pairs {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				t.Fatalf("record %d value %d: bits %x != %x", i, k, math.Float64bits(p[1]), math.Float64bits(p[0]))
			}
		}
	}
	if len(buf) != 0 {
		t.Fatalf("%d bytes left over", len(buf))
	}
}

// TestDecodeBinaryReusesFleet pins the decoder's fleet sharing: a record
// whose fleet matches the one passed in costs no allocation, in either
// layout, and any other fleet is copied out of the buffer.
func TestDecodeBinaryReusesFleet(t *testing.T) {
	fleet := "cab"
	for _, r := range []Report{
		{Fleet: "cab", Participant: 1, Slot: 2, X: 3},
		{Fleet: "cab", Participant: 1, Slot: 2, X: 3, IngestUnixMicro: 5, Origin: OriginDirect, TraceID: 6},
	} {
		b := r.AppendBinary(nil)
		for _, tc := range []struct {
			prev string
			want float64
		}{{fleet, 0}, {"taxi", 1}} {
			got := testing.AllocsPerRun(10, func() {
				var back Report
				if _, err := DecodeBinary(b, tc.prev, &back); err != nil || back.Fleet != fleet {
					t.Fatalf("decode = %+v, %v", back, err)
				}
			})
			if got != tc.want {
				t.Errorf("stamped=%v prev=%q: %v allocations, want %v", r.Stamped(), tc.prev, got, tc.want)
			}
		}
	}
}

func TestDecodeBinaryMalformed(t *testing.T) {
	good := Report{Fleet: "cab", Participant: 1, Slot: 2, X: 3}.AppendBinary(nil)
	cases := map[string][]byte{
		"empty":             {},
		"huge fleet length": {0xFF, 0xFF, 0xFF, 0x7F},
		"truncated fleet":   {0x05, 'c', 'a'},
		"truncated values":  good[:len(good)-5],
		"oversized participant": append(
			[]byte{0x00},                                               // empty fleet
			0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, // > MaxInt32
		),
	}
	for name, b := range cases {
		if _, err := DecodeBinary(b, "cab", new(Report)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckFiniteRejectsNonFinite(t *testing.T) {
	bad := []Report{
		{Participant: 3, Slot: 5, X: math.NaN()},
		{Y: math.Inf(1)},
		{VX: math.Inf(-1)},
		{VY: math.NaN()},
	}
	for i, r := range bad {
		if err := r.CheckFinite(); !errors.Is(err, ErrNonFinite) {
			t.Errorf("report %d: err = %v, want ErrNonFinite", i, err)
		}
	}
	if err := bad[0].CheckFinite(); !strings.Contains(err.Error(), "participant 3 slot 5") {
		t.Errorf("error should identify the report: %v", err)
	}
	ok := Report{X: 1e308, Y: -1e308, VX: 0, VY: math.Copysign(0, -1)}
	if err := ok.CheckFinite(); err != nil {
		t.Errorf("finite report rejected: %v", err)
	}
}
