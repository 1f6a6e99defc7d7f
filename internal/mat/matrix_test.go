package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randomDense(rng *rand.Rand, r, c int) *Dense {
	m := New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func TestNewZeroInitialized(t *testing.T) {
	m := New(3, 4)
	r, c := m.Dims()
	if r != 3 || c != 4 {
		t.Fatalf("Dims() = (%d,%d), want (3,4)", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewClampsNegativeDims(t *testing.T) {
	m := New(-1, -5)
	if !m.IsEmpty() {
		t.Fatal("negative dims should produce an empty matrix")
	}
}

func TestNewFromRows(t *testing.T) {
	m, err := NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 3 || m.Cols() != 2 || m.At(2, 1) != 6 {
		t.Fatalf("unexpected matrix %v", m)
	}
	if _, err := NewFromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("want shape error for ragged rows")
	}
	empty, err := NewFromRows(nil)
	if err != nil || !empty.IsEmpty() {
		t.Fatalf("empty input should yield empty matrix, got %v, %v", empty, err)
	}
}

func TestIdentityAndOnes(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("identity(%d,%d) = %v", i, j, id.At(i, j))
			}
		}
	}
	ones := Ones(2, 2)
	if ones.Sum() != 4 {
		t.Fatalf("Ones sum = %v", ones.Sum())
	}
	filled := Filled(2, 3, 2.5)
	if filled.Sum() != 15 {
		t.Fatalf("Filled sum = %v", filled.Sum())
	}
}

func TestSetGetRowCol(t *testing.T) {
	m, _ := NewFromRows([][]float64{{1, 0, 0}, {2, 8, 9}})
	m.Set(0, 2, 7)
	if got := m.At(0, 2); got != 7 {
		t.Fatalf("At(0,2) = %v after Set", got)
	}
	got := m.Row(1)
	if got[0] != 2 || got[2] != 9 {
		t.Fatalf("Row(1) = %v", got)
	}
	got[0] = 99
	if m.At(1, 0) != 2 {
		t.Fatal("Row must copy")
	}
}

func TestRowViewAliases(t *testing.T) {
	m := New(2, 2)
	rv := m.RowView(0)
	rv[1] = 42
	if m.At(0, 1) != 42 {
		t.Fatal("RowView must alias matrix storage")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := Ones(2, 2)
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestTranspose(t *testing.T) {
	m, _ := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose dims %dx%d", tr.Rows(), tr.Cols())
	}
	if tr.At(2, 0) != 3 || tr.At(0, 1) != 4 {
		t.Fatalf("transpose content wrong: %v", tr)
	}
}

func TestAddSubScale(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	if a.Scale(10) != a || a.At(0, 0) != 10 || a.At(1, 0) != 30 {
		t.Fatal("Scale must mutate in place and return the receiver")
	}
}

func TestInPlaceOps(t *testing.T) {
	a := Ones(2, 2)
	b := Filled(2, 2, 2)
	if err := a.AxpyInPlace(3, b); err != nil {
		t.Fatal(err)
	}
	if a.At(1, 1) != 7 {
		t.Fatalf("AxpyInPlace got %v", a.At(1, 1))
	}
	if err := a.AxpyInPlace(1, New(1, 1)); err == nil {
		t.Fatal("want shape error")
	}
}

func TestHadamard(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := NewFromRows([][]float64{{2, 0}, {1, 3}})
	h, err := a.Hadamard(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{2, 0}, {3, 12}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if h.At(i, j) != want[i][j] {
				t.Fatalf("hadamard(%d,%d) = %v, want %v", i, j, h.At(i, j), want[i][j])
			}
		}
	}
	if _, err := a.Hadamard(New(1, 1)); err == nil {
		t.Fatal("want shape error")
	}
}

func TestMulTAndTMulAgreeWithExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomDense(rng, 5, 3)
	b := randomDense(rng, 4, 3)
	got, err := a.MulT(b)
	if err != nil {
		t.Fatal(err)
	}
	bt := b.T()
	for i := 0; i < 5; i++ {
		for j := 0; j < 4; j++ {
			var want float64
			for k := 0; k < 3; k++ {
				want += a.At(i, k) * bt.At(k, j)
			}
			if !almostEqual(got.At(i, j), want, 1e-12) {
				t.Fatalf("MulT(%d,%d) = %v, explicit transpose %v", i, j, got.At(i, j), want)
			}
		}
	}
	if _, err := a.MulT(New(2, 9)); err == nil {
		t.Fatal("want shape error in MulT")
	}
}

func TestNorms(t *testing.T) {
	m, _ := NewFromRows([][]float64{{3, 0}, {0, 4}})
	if !almostEqual(m.FrobeniusNorm(), 5, 1e-12) {
		t.Fatalf("‖m‖F = %v", m.FrobeniusNorm())
	}
	if !almostEqual(m.FrobeniusNorm2(), 25, 1e-12) {
		t.Fatalf("‖m‖F² = %v", m.FrobeniusNorm2())
	}
	if m.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
	huge := Filled(2, 2, 1e200)
	if math.IsInf(huge.FrobeniusNorm(), 1) {
		t.Fatal("FrobeniusNorm overflowed for large values")
	}
}

func TestDot(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := NewFromRows([][]float64{{5, 6}, {7, 8}})
	d, err := a.Dot(b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 70 {
		t.Fatalf("dot = %v, want 70", d)
	}
	if _, err := a.Dot(New(1, 1)); err == nil {
		t.Fatal("want shape error")
	}
}

func TestReductionHelpers(t *testing.T) {
	m, _ := NewFromRows([][]float64{{1, -2}, {3, 4}})
	if m.Sum() != 6 {
		t.Fatalf("Sum = %v", m.Sum())
	}
	if n := m.CountIf(func(v float64) bool { return v > 0 }); n != 3 {
		t.Fatalf("CountIf = %d", n)
	}
}

func TestApplyAndMap(t *testing.T) {
	m := Ones(2, 2)
	m.Apply(func(i, j int, v float64) float64 { return v + float64(i*10+j) })
	if m.At(1, 1) != 12 {
		t.Fatalf("Apply got %v", m.At(1, 1))
	}
	doubled := m.Map(func(v float64) float64 { return 2 * v })
	if doubled.At(1, 1) != 24 || m.At(1, 1) != 12 {
		t.Fatal("Map must not mutate receiver")
	}
}

func TestSlice(t *testing.T) {
	m, _ := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s, err := m.Slice(1, 3, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows() != 2 || s.Cols() != 2 || s.At(0, 0) != 4 || s.At(1, 1) != 8 {
		t.Fatalf("slice = %v", s)
	}
	s.Set(0, 0, 99)
	if m.At(1, 0) != 4 {
		t.Fatal("Slice must copy")
	}
	if _, err := m.Slice(0, 4, 0, 1); err == nil {
		t.Fatal("want index error")
	}
}

func TestEqual(t *testing.T) {
	a := Ones(2, 2)
	b := Ones(2, 2)
	b.Set(0, 0, 1.0000001)
	if !a.Equal(b, 1e-3) {
		t.Fatal("matrices within tolerance must compare equal")
	}
	if a.Equal(b, 1e-9) {
		t.Fatal("matrices beyond tolerance must compare unequal")
	}
	if a.Equal(New(1, 1), 1) {
		t.Fatal("different shapes must compare unequal")
	}
}

func TestStringRendering(t *testing.T) {
	small := Ones(2, 2)
	if got := small.String(); got == "" {
		t.Fatal("small matrix should render elements")
	}
	big := Ones(50, 50)
	if got := big.String(); len(got) > 200 {
		t.Fatalf("large matrix should render a summary, got %d bytes", len(got))
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range must panic")
		}
	}()
	New(1, 1).At(2, 0)
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ for random matrices, with A·B = A·(Bᵀ)ᵀ.
func TestPropertyTransposeProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		r := 2 + local.Intn(6)
		k := 2 + local.Intn(6)
		c := 2 + local.Intn(6)
		a := randomDense(rng, r, k)
		b := randomDense(rng, k, c)
		ab, err := a.MulT(b.T())
		if err != nil {
			return false
		}
		btat, err := b.T().MulT(a)
		if err != nil {
			return false
		}
		return ab.T().Equal(btat, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: ‖A‖²F equals ⟨A, A⟩.
func TestPropertyNormMatchesSelfDot(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		a := randomDense(rng, 1+local.Intn(8), 1+local.Intn(8))
		d, err := a.Dot(a)
		if err != nil {
			return false
		}
		return almostEqual(d, a.FrobeniusNorm2(), 1e-9*math.Max(1, d))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Hadamard product is commutative.
func TestPropertyHadamardCommutes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		r, c := 1+local.Intn(6), 1+local.Intn(6)
		a := randomDense(rng, r, c)
		b := randomDense(rng, r, c)
		ab, err1 := a.Hadamard(b)
		ba, err2 := b.Hadamard(a)
		return err1 == nil && err2 == nil && ab.Equal(ba, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
