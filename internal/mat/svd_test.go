package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// orthonormalColumns reports whether m's columns are orthonormal within tol.
func orthonormalColumns(m *Dense, tol float64) bool {
	g, err := m.T().MulT(m.T()) // mᵀ·m
	if err != nil {
		return false
	}
	id := Identity(m.Cols())
	return g.Equal(id, tol)
}

// reconstruct multiplies the factors back into U·diag(S)·Vᵀ.
func reconstruct(r *SVDResult) (*Dense, error) {
	us := r.U.Clone()
	for i := 0; i < us.rows; i++ {
		for j := 0; j < us.cols; j++ {
			us.data[i*us.cols+j] *= r.S[j]
		}
	}
	return us.MulT(r.V)
}

func TestSVDReconstructsTall(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomDense(rng, 12, 6)
	res, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	back, err := reconstruct(res)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(a, 1e-9) {
		t.Fatal("U·S·Vᵀ does not reconstruct A")
	}
	if !orthonormalColumns(res.U, 1e-9) {
		t.Fatal("U columns not orthonormal")
	}
	if !orthonormalColumns(res.V, 1e-9) {
		t.Fatal("V columns not orthonormal")
	}
}

func TestSVDReconstructsWide(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomDense(rng, 5, 11)
	res, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	if res.U.Rows() != 5 || res.V.Rows() != 11 || len(res.S) != 5 {
		t.Fatalf("thin SVD shapes wrong: U %dx%d V %dx%d k=%d",
			res.U.Rows(), res.U.Cols(), res.V.Rows(), res.V.Cols(), len(res.S))
	}
	back, err := reconstruct(res)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(a, 1e-9) {
		t.Fatal("wide SVD reconstruction failed")
	}
}

func TestSVDSingularValuesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomDense(rng, 9, 9)
	res, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.S); i++ {
		if res.S[i] > res.S[i-1]+1e-12 {
			t.Fatalf("singular values not sorted: %v", res.S)
		}
		if res.S[i] < 0 {
			t.Fatalf("negative singular value: %v", res.S)
		}
	}
}

func TestSVDKnownDiagonal(t *testing.T) {
	a := New(3, 3)
	a.Set(0, 0, 3)
	a.Set(1, 1, 1)
	a.Set(2, 2, 2)
	res, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1}
	for i, w := range want {
		if !almostEqual(res.S[i], w, 1e-10) {
			t.Fatalf("σ%d = %v, want %v", i, res.S[i], w)
		}
	}
}

func TestSVDRankDeficient(t *testing.T) {
	// Rank-2 matrix: outer-product construction like the paper's Eq. 13
	// (constant-velocity coordinate matrix has rank 2).
	n, tt := 10, 14
	alpha := make([]float64, n)
	vel := make([]float64, n)
	rng := rand.New(rand.NewSource(4))
	for i := range alpha {
		alpha[i] = rng.Float64() * 1000
		vel[i] = rng.Float64() * 20
	}
	x := New(n, tt)
	for i := 0; i < n; i++ {
		for j := 0; j < tt; j++ {
			x.Set(i, j, alpha[i]+float64(j)*vel[i])
		}
	}
	res, err := SVD(x)
	if err != nil {
		t.Fatal(err)
	}
	if res.S[1] <= 1e-9*res.S[0] || res.S[2] > 1e-9*res.S[0] {
		t.Fatalf("constant-velocity matrix is not rank 2 (σ=%v)", res.S[:4])
	}
}

func TestSVDEmptyMatrix(t *testing.T) {
	if _, err := SVD(New(0, 0)); err == nil {
		t.Fatal("want error for empty matrix")
	}
}

func TestEnergyCDF(t *testing.T) {
	res := &SVDResult{S: []float64{6, 3, 1}}
	cdf := res.EnergyCDF()
	want := []float64{0.6, 0.9, 1.0}
	for i := range want {
		if !almostEqual(cdf[i], want[i], 1e-12) {
			t.Fatalf("cdf[%d] = %v, want %v", i, cdf[i], want[i])
		}
	}
	if res.RankForEnergy(0.85) != 2 {
		t.Fatalf("RankForEnergy(0.85) = %d, want 2", res.RankForEnergy(0.85))
	}
	if res.RankForEnergy(0.95) != 3 {
		t.Fatalf("RankForEnergy(0.95) = %d, want 3", res.RankForEnergy(0.95))
	}
	zero := &SVDResult{S: []float64{0, 0}}
	if cdf := zero.EnergyCDF(); cdf[0] != 0 || cdf[1] != 0 {
		t.Fatal("zero matrix CDF must be all zeros")
	}
}

// Property: singular values are invariant under transposition.
func TestPropertySVDTransposeInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		a := randomDense(rng, 2+local.Intn(7), 2+local.Intn(7))
		ra, err1 := SVD(a)
		rt, err2 := SVD(a.T())
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range ra.S {
			if !almostEqual(ra.S[i], rt.S[i], 1e-8*math.Max(1, ra.S[0])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: ‖A‖²F = Σσ².
func TestPropertyFrobeniusEqualsSigmaSum(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		a := randomDense(rng, 2+local.Intn(6), 2+local.Intn(6))
		res, err := SVD(a)
		if err != nil {
			return false
		}
		var ss float64
		for _, s := range res.S {
			ss += s * s
		}
		return almostEqual(ss, a.FrobeniusNorm2(), 1e-8*math.Max(1, ss))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
