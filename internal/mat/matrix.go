// Package mat provides the dense linear-algebra substrate used throughout
// the I(TS,CS) reproduction: a row-major dense matrix of float64 with the
// element-wise ops, the L·Rᵀ product, norms and the one-sided Jacobi SVD
// that the compressive-sensing reconstruction and the evaluation harness
// require, plus the row-block worker pool its callers split passes with.
//
// The package is deliberately self-contained (standard library only) and
// tuned for the paper's scale — hundreds of rows and columns — where simple
// cache-friendly loops beat sophisticated blocking.
package mat

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Common argument errors returned by matrix operations.
var (
	// ErrShape indicates that operand dimensions are incompatible.
	ErrShape = errors.New("mat: incompatible matrix shapes")
	// ErrIndex indicates an out-of-range element access.
	ErrIndex = errors.New("mat: index out of range")
	// ErrEmptyInput indicates that a decoder received no data.
	ErrEmptyInput = errors.New("mat: empty input")
)

// Dense is a row-major dense matrix of float64 values.
//
// The zero value is an empty 0×0 matrix. All mutating methods operate
// in place on the receiver; constructors and derived-value methods return
// fresh matrices that share no storage with their inputs.
type Dense struct {
	rows, cols int
	data       []float64
}

// New returns a zero-initialized r×c matrix.
// It panics only via make on absurd sizes; negative dimensions are clamped
// to zero to keep the zero value semantics.
func New(r, c int) *Dense {
	if r < 0 {
		r = 0
	}
	if c < 0 {
		c = 0
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewFromRows builds a matrix from a slice of equally sized rows.
// It returns ErrShape when rows are ragged or empty in a way that prevents
// inferring the column count.
func NewFromRows(rows [][]float64) (*Dense, error) {
	r := len(rows)
	if r == 0 {
		return New(0, 0), nil
	}
	c := len(rows[0])
	m := New(r, c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("%w: row %d has %d values, want %d", ErrShape, i, len(row), c)
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Ones returns an r×c matrix filled with 1.
func Ones(r, c int) *Dense {
	m := New(r, c)
	for i := range m.data {
		m.data[i] = 1
	}
	return m
}

// Filled returns an r×c matrix with every element set to v.
func Filled(r, c int, v float64) *Dense {
	m := New(r, c)
	for i := range m.data {
		m.data[i] = v
	}
	return m
}

// Dims reports the row and column counts.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Rows reports the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols reports the number of columns.
func (m *Dense) Cols() int { return m.cols }

// IsEmpty reports whether the matrix has no elements.
func (m *Dense) IsEmpty() bool { return m.rows == 0 || m.cols == 0 }

// At returns the element at row i, column j.
// Access outside the matrix bounds panics, mirroring slice semantics:
// such access is a programming error, not a recoverable condition.
func (m *Dense) At(i, j int) float64 {
	m.boundsCheck(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds delta to the element at row i, column j.
func (m *Dense) Add(i, j int, delta float64) {
	m.boundsCheck(i, j)
	m.data[i*m.cols+j] += delta
}

func (m *Dense) boundsCheck(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Row returns a copy of row i.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// RowView returns the backing slice of row i without copying.
// The caller must not grow the slice; writes mutate the matrix.
func (m *Dense) RowView(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols : (i+1)*m.cols]
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Apply replaces every element with f(i, j, value).
func (m *Dense) Apply(f func(i, j int, v float64) float64) {
	idx := 0
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			m.data[idx] = f(i, j, m.data[idx])
			idx++
		}
	}
}

// Map returns a new matrix whose elements are f applied to m's elements.
func (m *Dense) Map(f func(v float64) float64) *Dense {
	out := New(m.rows, m.cols)
	for i, v := range m.data {
		out.data[i] = f(v)
	}
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	out := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		base := i * m.cols
		for j := 0; j < m.cols; j++ {
			out.data[j*m.rows+i] = m.data[base+j]
		}
	}
	return out
}

// Scale multiplies every element in place by s and returns m for chaining.
func (m *Dense) Scale(s float64) *Dense {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// AxpyInPlace computes m += alpha*other element-wise.
func (m *Dense) AxpyInPlace(alpha float64, other *Dense) error {
	if m.rows != other.rows || m.cols != other.cols {
		return fmt.Errorf("%w: axpy %dx%d and %dx%d", ErrShape, m.rows, m.cols, other.rows, other.cols)
	}
	for i := range m.data {
		m.data[i] += alpha * other.data[i]
	}
	return nil
}

// Hadamard returns the element-wise product m ∘ other.
func (m *Dense) Hadamard(other *Dense) (*Dense, error) {
	if m.rows != other.rows || m.cols != other.cols {
		return nil, fmt.Errorf("%w: hadamard %dx%d and %dx%d", ErrShape, m.rows, m.cols, other.rows, other.cols)
	}
	out := New(m.rows, m.cols)
	for i := range m.data {
		out.data[i] = m.data[i] * other.data[i]
	}
	return out, nil
}

// MulT returns m·otherᵀ without materializing the transpose.
func (m *Dense) MulT(other *Dense) (*Dense, error) {
	if m.cols != other.cols {
		return nil, fmt.Errorf("%w: mulT %dx%d by (%dx%d)ᵀ", ErrShape, m.rows, m.cols, other.rows, other.cols)
	}
	out := New(m.rows, other.rows)
	mulTInto(out, m, other)
	return out, nil
}

// mulTInto is the dot-product kernel for a·bᵀ, row-block parallel over the
// output rows.
func mulTInto(dst, a, b *Dense) {
	if !ParallelWorthwhile(a.rows, a.cols*b.rows) {
		mulTIntoBlock(dst, a, b, 0, a.rows)
		return
	}
	ParallelRows(a.rows, a.cols*b.rows, func(lo, hi int) {
		mulTIntoBlock(dst, a, b, lo, hi)
	})
}

func mulTIntoBlock(dst, a, b *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		drow := dst.data[i*dst.cols : (i+1)*dst.cols]
		for j := 0; j < b.rows; j++ {
			// Re-slice to len(arow) so the compiler can prove brow[k] is
			// in bounds (a.cols == b.cols is the caller's contract, but
			// invisible here).
			brow := b.data[j*b.cols:][:len(arow)]
			var sum float64
			for k, av := range arow {
				sum += av * brow[k]
			}
			drow[j] = sum
		}
	}
}

// FrobeniusNorm returns ‖m‖_F.
func (m *Dense) FrobeniusNorm() float64 {
	// Scaled accumulation avoids overflow for large values.
	var scale, ssq float64 = 0, 1
	for _, v := range m.data {
		if v == 0 {
			continue
		}
		av := math.Abs(v)
		if scale < av {
			ssq = 1 + ssq*(scale/av)*(scale/av)
			scale = av
		} else {
			ssq += (av / scale) * (av / scale)
		}
	}
	return scale * math.Sqrt(ssq)
}

// FrobeniusNorm2 returns ‖m‖²_F (the plain sum of squares).
func (m *Dense) FrobeniusNorm2() float64 {
	var sum float64
	for _, v := range m.data {
		sum += v * v
	}
	return sum
}

// Dot returns the Frobenius inner product ⟨m, other⟩ = Σ m_ij·other_ij.
func (m *Dense) Dot(other *Dense) (float64, error) {
	if m.rows != other.rows || m.cols != other.cols {
		return 0, fmt.Errorf("%w: dot %dx%d and %dx%d", ErrShape, m.rows, m.cols, other.rows, other.cols)
	}
	var sum float64
	for i := range m.data {
		sum += m.data[i] * other.data[i]
	}
	return sum, nil
}

// MaxAbs returns the largest absolute element value (0 for empty matrices).
func (m *Dense) MaxAbs() float64 {
	var best float64
	for _, v := range m.data {
		if a := math.Abs(v); a > best {
			best = a
		}
	}
	return best
}

// Sum returns the sum of all elements.
func (m *Dense) Sum() float64 {
	var sum float64
	for _, v := range m.data {
		sum += v
	}
	return sum
}

// CountIf returns how many elements satisfy pred.
func (m *Dense) CountIf(pred func(v float64) bool) int {
	var n int
	for _, v := range m.data {
		if pred(v) {
			n++
		}
	}
	return n
}

// Equal reports whether the matrices have identical shape and all elements
// within tol of each other.
func (m *Dense) Equal(other *Dense, tol float64) bool {
	if m.rows != other.rows || m.cols != other.cols {
		return false
	}
	for i := range m.data {
		if math.Abs(m.data[i]-other.data[i]) > tol {
			return false
		}
	}
	return true
}

// Slice returns a copy of the sub-matrix rows [r0,r1) × cols [c0,c1).
func (m *Dense) Slice(r0, r1, c0, c1 int) (*Dense, error) {
	if r0 < 0 || c0 < 0 || r1 > m.rows || c1 > m.cols || r0 > r1 || c0 > c1 {
		return nil, fmt.Errorf("%w: slice [%d:%d, %d:%d] of %dx%d", ErrIndex, r0, r1, c0, c1, m.rows, m.cols)
	}
	out := New(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.data[(i-r0)*out.cols:(i-r0+1)*out.cols], m.data[i*m.cols+c0:i*m.cols+c1])
	}
	return out, nil
}

// RawData returns the backing slice. The caller must not resize it;
// mutations are visible in the matrix. Intended for hot loops in-package
// consumers and encoders.
func (m *Dense) RawData() []float64 { return m.data }

// String renders small matrices fully and large ones as a summary.
func (m *Dense) String() string {
	const maxRender = 12
	if m.rows > maxRender || m.cols > maxRender {
		return fmt.Sprintf("Dense(%dx%d, ‖·‖F=%.4g)", m.rows, m.cols, m.FrobeniusNorm())
	}
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			b.WriteByte('\n')
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.FormatFloat(m.data[i*m.cols+j], 'g', 6, 64))
		}
	}
	return b.String()
}
