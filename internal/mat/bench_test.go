package mat

import (
	"bytes"
	"math/rand"
	"testing"
)

func benchMatrix(r, c int) *Dense {
	rng := rand.New(rand.NewSource(1))
	m := New(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

func BenchmarkMulT158x240(b *testing.B) {
	l := benchMatrix(158, 40)
	r := benchMatrix(240, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.MulT(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSVDPaperScale(b *testing.B) {
	m := benchMatrix(158, 240)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SVD(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrobeniusNorm(b *testing.B) {
	m := benchMatrix(158, 240)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.FrobeniusNorm2()
	}
}

// BenchmarkReadBinary decodes one checkpoint ring at the paper's stream
// shape, (W+H)×participants = 300×158, as recovery does for every ring of
// every shard.
func BenchmarkReadBinary(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, benchMatrix(300, 158)); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(enc)); err != nil {
			b.Fatal(err)
		}
	}
}
