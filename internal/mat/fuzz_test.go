package mat

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReadCSV checks that the decoder never panics and that whatever it
// accepts round-trips through the encoder.
func FuzzReadCSV(f *testing.F) {
	seeds := []string{
		"1,2,3\n4,5,6\n",
		"1\n",
		"",
		"NaN,2\n3,4\n",
		"1e308,-1e308\n0,-0\n",
		"  1 , 2 \n\n3,4\n",
		"a,b\n",
		"1,2\n3\n",
		strings.Repeat("1,", 100) + "1\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, m); err != nil {
			t.Fatalf("encode accepted matrix: %v", err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("re-decode own encoding: %v", err)
		}
		if br, bc := back.Dims(); br != m.Rows() || bc != m.Cols() {
			t.Fatalf("round trip changed shape: %dx%d -> %dx%d", m.Rows(), m.Cols(), br, bc)
		}
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < m.Cols(); j++ {
				a, b := m.At(i, j), back.At(i, j)
				if a != b && !(a != a && b != b) { // NaN-tolerant equality
					t.Fatalf("round trip changed (%d,%d): %v -> %v", i, j, a, b)
				}
			}
		}
	})
}

// FuzzReadBinary checks that the binary matrix decoder never panics or
// over-allocates on arbitrary bytes, and that whatever it accepts
// round-trips through the encoder bit-exactly (NaN payloads included).
func FuzzReadBinary(f *testing.F) {
	seed := func(m *Dense) {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	small, _ := NewFromRows([][]float64{{1, -2.5, math.NaN()}, {math.Inf(1), -0.0, 1e308}})
	seed(small)
	seed(New(0, 0))
	seed(New(1, 0))
	seed(Ones(3, 3))
	f.Add([]byte{})
	f.Add([]byte("MATB")) // magic only
	f.Add(append([]byte("MATB"),
		0xFF, 0xFF, 0xFF, 0xFF, // absurd rows
		0xFF, 0xFF, 0xFF, 0xFF)) // absurd cols

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics and OOMs are not
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, m); err != nil {
			t.Fatalf("encode accepted matrix: %v", err)
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("re-decode own encoding: %v", err)
		}
		if br, bc := back.Dims(); br != m.Rows() || bc != m.Cols() {
			t.Fatalf("round trip changed shape: %dx%d -> %dx%d", m.Rows(), m.Cols(), br, bc)
		}
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < m.Cols(); j++ {
				if math.Float64bits(m.At(i, j)) != math.Float64bits(back.At(i, j)) {
					t.Fatalf("round trip changed (%d,%d): %x -> %x",
						i, j, math.Float64bits(m.At(i, j)), math.Float64bits(back.At(i, j)))
				}
			}
		}
	})
}
