package mat

import (
	"fmt"
	"math"
	"sort"
)

// SVDResult holds a thin singular value decomposition A = U·diag(S)·Vᵀ,
// where A is r×c, U is r×k, V is c×k and S has k = min(r, c) entries in
// non-increasing order.
type SVDResult struct {
	U *Dense    // left singular vectors, r×k
	S []float64 // singular values, length k, descending
	V *Dense    // right singular vectors, c×k
}

// SVD computes the thin singular value decomposition of m using one-sided
// Jacobi rotations. The method is slower than Golub–Kahan bidiagonalization
// but is simple, numerically robust, and exact to machine precision at the
// matrix sizes used in this project (hundreds × hundreds).
//
// For matrices with more columns than rows the decomposition of the
// transpose is computed and the factors swapped, so the iteration always
// runs on the tall orientation.
func SVD(m *Dense) (*SVDResult, error) {
	if m.IsEmpty() {
		return nil, fmt.Errorf("%w: SVD of empty matrix", ErrShape)
	}
	if m.rows < m.cols {
		res, err := SVD(m.T())
		if err != nil {
			return nil, err
		}
		return &SVDResult{U: res.V, S: res.S, V: res.U}, nil
	}

	// One-sided Jacobi on A (tall): orthogonalize the columns of a working
	// copy W = A·V by plane rotations accumulated into V. At convergence the
	// columns of W are σ_i·u_i.
	n := m.cols
	w := m.Clone()
	v := Identity(n)

	const (
		maxSweeps = 60
		tol       = 1e-13
	)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		offDiag := jacobiSweep(w, v, tol)
		if offDiag {
			continue
		}
		break
	}

	// Extract singular values as column norms of W, normalize columns into U.
	type colSV struct {
		sigma float64
		idx   int
	}
	svs := make([]colSV, n)
	for j := 0; j < n; j++ {
		var s float64
		for i := 0; i < w.rows; i++ {
			val := w.data[i*w.cols+j]
			s += val * val
		}
		svs[j] = colSV{sigma: math.Sqrt(s), idx: j}
	}
	sort.Slice(svs, func(a, b int) bool { return svs[a].sigma > svs[b].sigma })

	u := New(m.rows, n)
	vOut := New(n, n)
	sOut := make([]float64, n)
	for rank, sv := range svs {
		sOut[rank] = sv.sigma
		if sv.sigma > 0 {
			inv := 1 / sv.sigma
			for i := 0; i < m.rows; i++ {
				u.data[i*n+rank] = w.data[i*w.cols+sv.idx] * inv
			}
		}
		for i := 0; i < n; i++ {
			vOut.data[i*n+rank] = v.data[i*n+sv.idx]
		}
	}
	return &SVDResult{U: u, S: sOut, V: vOut}, nil
}

// jacobiSweep performs one full sweep of one-sided Jacobi rotations over all
// column pairs of w, accumulating rotations into v. It reports whether any
// pair exceeded the orthogonality tolerance (i.e. another sweep is needed).
func jacobiSweep(w, v *Dense, tol float64) bool {
	n := w.cols
	rotated := false
	for p := 0; p < n-1; p++ {
		for q := p + 1; q < n; q++ {
			// Compute the 2x2 Gram entries for columns p, q.
			var app, aqq, apq float64
			for i := 0; i < w.rows; i++ {
				wp := w.data[i*w.cols+p]
				wq := w.data[i*w.cols+q]
				app += wp * wp
				aqq += wq * wq
				apq += wp * wq
			}
			if math.Abs(apq) <= tol*math.Sqrt(app*aqq) || apq == 0 {
				continue
			}
			rotated = true
			// Standard Jacobi rotation zeroing the off-diagonal Gram entry.
			zeta := (aqq - app) / (2 * apq)
			var t float64
			if zeta >= 0 {
				t = 1 / (zeta + math.Sqrt(1+zeta*zeta))
			} else {
				t = -1 / (-zeta + math.Sqrt(1+zeta*zeta))
			}
			c := 1 / math.Sqrt(1+t*t)
			s := c * t
			applyRotation(w, p, q, c, s)
			applyRotation(v, p, q, c, s)
		}
	}
	return rotated
}

// applyRotation applies the plane rotation [c s; -s c] to columns p, q of m.
func applyRotation(m *Dense, p, q int, c, s float64) {
	for i := 0; i < m.rows; i++ {
		base := i * m.cols
		xp := m.data[base+p]
		xq := m.data[base+q]
		m.data[base+p] = c*xp - s*xq
		m.data[base+q] = s*xp + c*xq
	}
}

// EnergyCDF returns, for each prefix length i, the cumulative fraction
// Σ_{k≤i} σ_k / Σ σ_k. Used for the Fig. 4(a) low-rank analysis.
func (r *SVDResult) EnergyCDF() []float64 {
	out := make([]float64, len(r.S))
	var total float64
	for _, s := range r.S {
		total += s
	}
	if total == 0 {
		return out
	}
	var run float64
	for i, s := range r.S {
		run += s
		out[i] = run / total
	}
	return out
}

// RankForEnergy returns the smallest rank whose singular-value prefix
// captures at least frac of the total singular-value mass.
func (r *SVDResult) RankForEnergy(frac float64) int {
	cdf := r.EnergyCDF()
	for i, c := range cdf {
		if c >= frac {
			return i + 1
		}
	}
	return len(cdf)
}
