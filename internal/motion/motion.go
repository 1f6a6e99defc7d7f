// Package motion implements the velocity and temporal-stability primitives
// shared by the detection and reconstruction stages of I(TS,CS):
//
//   - the Average Velocity Matrix V̄ of paper Eq. (11),
//   - the temporal-stability measures Δ (Eq. 21) and velocity-improved
//     Δᵥ (Eq. 22) used in the Fig. 4(b) analysis.
package motion

import (
	"fmt"
	"math"
	"time"

	"itscs/internal/mat"
)

// AverageVelocity computes the Average Velocity Matrix V̄ from instantaneous
// velocities V per paper Eq. (11):
//
//	V̄(i,1) = v(i,1)
//	V̄(i,j) = (v(i,j−1) + v(i,j)) / 2   for j > 1
//
// V̄(i,j) estimates the mean velocity over the interval from slot j−1 to
// slot j (the paper's convention v(i,0) = v(i,1) makes the first column the
// instantaneous value).
func AverageVelocity(v *mat.Dense) *mat.Dense {
	n, t := v.Dims()
	out := mat.New(n, t)
	for i := 0; i < n; i++ {
		row := v.RowView(i)
		dst := out.RowView(i)
		if t > 0 {
			dst[0] = row[0]
		}
		for j := 1; j < t; j++ {
			dst[j] = (row[j-1] + row[j]) / 2
		}
	}
	return out
}

// Stability computes the temporal-stability values Δx(i,j) of Eq. (21) for
// j ≥ 1 (0-indexed: columns 1..t−1): |x(i,j) − x(i,j−1)| flattened row by
// row. It returns an empty slice for matrices with fewer than two columns.
func Stability(x *mat.Dense) []float64 {
	n, t := x.Dims()
	if t < 2 {
		return nil
	}
	out := make([]float64, 0, n*(t-1))
	for i := 0; i < n; i++ {
		row := x.RowView(i)
		for j := 1; j < t; j++ {
			out = append(out, math.Abs(row[j]-row[j-1]))
		}
	}
	return out
}

// VelocityStability computes the velocity-improved temporal-stability
// values Δᵥx(i,j) of Eq. (22): |x(i,j) − x(i,j−1) − V̄(i,j)·τ|, i.e. the
// part of the positional change the reported velocity fails to explain.
//
// Note the paper prints |x − x'| − V̄τ; taking the magnitude of the residual
// (as done here and in the original figure, where values are non-negative)
// is the meaningful quantity.
func VelocityStability(x, avgV *mat.Dense, tau time.Duration) ([]float64, error) {
	n, t := x.Dims()
	vn, vt := avgV.Dims()
	if vn != n || vt != t {
		return nil, fmt.Errorf("motion: velocity %dx%d does not match positions %dx%d", vn, vt, n, t)
	}
	if t < 2 {
		return nil, nil
	}
	sec := tau.Seconds()
	out := make([]float64, 0, n*(t-1))
	for i := 0; i < n; i++ {
		row := x.RowView(i)
		vrow := avgV.RowView(i)
		for j := 1; j < t; j++ {
			out = append(out, math.Abs(row[j]-row[j-1]-vrow[j]*sec))
		}
	}
	return out, nil
}
