// Package csrecon implements the CORRECT stage of I(TS,CS): low-rank
// matrix completion of the sensory matrices via an L·Rᵀ factorization
// minimized with Alternating Steepest Descent (paper Algorithm 2,
// following Tanner & Wei's ASD). Each half-sweep takes Tanner & Wei's
// ScaledASD step: the gradient for one factor is scaled by the inverse of
// the other factor's regularized Gram, ∇_L·(RᵀR + λ₁I)⁻¹ for L and
// ∇_R·(LᵀL + λ₁I)⁻¹ for R, and the exact line search runs along that
// direction.
//
// Three objective variants mirror the paper's evaluation:
//
//	Basic             min ‖(LRᵀ)∘B − S‖²F + λ₁(‖L‖²F + ‖R‖²F)                    (Eq. 20)
//	Temporal          … + λ₂‖LRᵀ·𝕋'‖²F                                           (temporal stability only)
//	VelocityTemporal  … + λ₂‖LRᵀ·𝕋' − τ·V̄'‖²F                                    (Eq. 23)
//
// where 𝕋' is the difference operator of Eq. (24) with its first column
// dropped: Eq. (24) as printed maps the first slot to itself rather than to
// a difference, which would wrongly penalize the absolute position of the
// first slot (and, in the velocity variant, compare a position against a
// velocity). Dropping that column applies the constraint exactly to the
// t−1 slot-to-slot transitions the paper reasons about.
package csrecon

import (
	"fmt"
	"math"
	"time"

	"itscs/internal/mat"
	"itscs/internal/stat"
)

// Variant selects the reconstruction objective.
type Variant int

const (
	// VariantBasic is plain regularized matrix completion (Eq. 20).
	VariantBasic Variant = iota + 1
	// VariantTemporal adds the temporal-stability term without velocity.
	VariantTemporal
	// VariantVelocityTemporal is the full velocity-improved objective (Eq. 23).
	VariantVelocityTemporal
)

// String implements fmt.Stringer for diagnostics and reports.
func (v Variant) String() string {
	switch v {
	case VariantBasic:
		return "CS"
	case VariantTemporal:
		return "CS+T"
	case VariantVelocityTemporal:
		return "CS+VT"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Options configures CS_Reconstruct.
type Options struct {
	// Rank is the factorization rank bound r. Zero selects the rank
	// automatically: the smallest rank whose singular values capture
	// AutoRankEnergy of the nearest-filled matrix's spectral mass — the
	// paper's Fig. 4(a) energy criterion ("determined by experiment").
	Rank int
	// AutoRankEnergy is the spectral mass fraction for automatic rank
	// selection; only consulted when Rank == 0. Zero means 0.95.
	AutoRankEnergy float64
	// Lambda1 weighs the nuclear-norm surrogate (rank minimization).
	Lambda1 float64
	// Lambda2 weighs the temporal/velocity stability term; ignored by
	// VariantBasic.
	Lambda2 float64
	// Tau is the slot duration τ used to convert velocities to distances.
	Tau time.Duration
	// MaxIters bounds the ASD iterations.
	MaxIters int
	// TerminateRatio stops ASD when the relative objective improvement of
	// a full L+R sweep falls below it (Algorithm 2's ratio).
	TerminateRatio float64
	// Variant selects the objective.
	Variant Variant
	// Seed drives the random initialization RandomInit selects. A failed
	// SVD warm start is returned as an error, never replaced by it.
	Seed int64
	// RandomInit skips the SVD warm start and draws small random factors
	// instead (BenchmarkWarmStartVsRandom compares the two).
	RandomInit bool
	// FixedStepSize replaces the exact analytic line search with a fixed
	// step size along the scaled direction (used by the ablation bench).
	// Zero selects the exact line search, which is both faster to
	// converge and parameter-free.
	FixedStepSize float64
}

// DefaultOptions returns the configuration used in the evaluation.
//
// Lambda1 is kept tiny: the factors carry position-scale (10⁴–10⁵ m)
// values, so even a small weight regularizes effectively. Lambda2 is set
// so that absorbing a kilometers-scale fault into the factors costs more
// in stability penalty than rejecting it saves in fitting error — at
// λ₂ ≥ ~0.5 a spike of size ε adds ≈2λ₂ε² of stability penalty against
// the ε² of fitting gain, so faults that leak past detection cannot bend
// the reconstruction toward themselves.
func DefaultOptions() Options {
	return Options{
		Rank:           0, // automatic, via the spectral-energy rule below
		AutoRankEnergy: 0.985,
		Lambda1:        1e-6,
		Lambda2:        3.0,
		Tau:            30 * time.Second,
		MaxIters:       250,
		TerminateRatio: 1e-7,
		Variant:        VariantVelocityTemporal,
		Seed:           1,
	}
}

// Validate reports option errors.
func (o Options) Validate() error {
	switch {
	case o.Rank < 0:
		return fmt.Errorf("csrecon: rank must be >= 0, got %d", o.Rank)
	case o.AutoRankEnergy < 0 || o.AutoRankEnergy > 1:
		return fmt.Errorf("csrecon: auto-rank energy %v outside [0,1]", o.AutoRankEnergy)
	case o.Lambda1 < 0 || o.Lambda2 < 0:
		return fmt.Errorf("csrecon: negative lambda (%v, %v)", o.Lambda1, o.Lambda2)
	case o.Tau <= 0:
		return fmt.Errorf("csrecon: tau must be positive, got %v", o.Tau)
	case o.MaxIters < 1:
		return fmt.Errorf("csrecon: max iters must be >= 1, got %d", o.MaxIters)
	case o.TerminateRatio <= 0:
		return fmt.Errorf("csrecon: terminate ratio must be positive, got %v", o.TerminateRatio)
	case o.FixedStepSize < 0:
		return fmt.Errorf("csrecon: negative fixed step size %v", o.FixedStepSize)
	}
	switch o.Variant {
	case VariantBasic, VariantTemporal, VariantVelocityTemporal:
	default:
		return fmt.Errorf("csrecon: unknown variant %d", int(o.Variant))
	}
	return nil
}

// Reconstruct completes one axis of the dataset.
//
// s is the sensory matrix, b the Generalized Binary Index Matrix (1 where a
// value is observed AND currently trusted), and avgV the Average Velocity
// Matrix V̄ for this axis — required by VariantVelocityTemporal and ignored
// otherwise (may be nil).
//
// It returns the dense reconstruction Ŝ = L·Rᵀ.
func Reconstruct(s, b, avgV *mat.Dense, opt Options) (*mat.Dense, error) {
	result, err := ReconstructDetailed(s, b, avgV, opt)
	if err != nil {
		return nil, err
	}
	return result.SHat, nil
}

// Result carries the reconstruction with convergence diagnostics.
type Result struct {
	// SHat is the reconstructed matrix L·Rᵀ.
	SHat *mat.Dense
	// Factors holds the final factorization (SHat = L·Rᵀ). It can be fed
	// back into ReconstructWarm to warm-start a later reconstruction of an
	// overlapping or re-masked problem.
	Factors Factors
	// WarmStarted reports whether the sweeps started from caller-provided
	// factors rather than the truncated-SVD (or random) initialization.
	WarmStarted bool
	// Iterations is the number of ASD sweeps performed.
	Iterations int
	// Objective is the final value of the optimization objective.
	Objective float64
	// ObjectiveTrace records the objective after every sweep.
	ObjectiveTrace []float64
}

// Factors is an L·Rᵀ factorization: L is n×r, R is t×r. The zero value
// means "no factors" and always falls back to a cold start.
type Factors struct {
	L, R *mat.Dense
}

// usableFor reports whether the factors can seed an n×t reconstruction
// under opt: both present, shapes consistent, and the rank compatible with
// an explicitly requested opt.Rank. A mismatch is not an error — streaming
// callers hit it whenever the fleet roster, window size, or configured rank
// changes — so the caller falls back to the cold initialization instead.
func (f Factors) usableFor(n, t int, opt Options) bool {
	if f.L == nil || f.R == nil {
		return false
	}
	ln, lr := f.L.Dims()
	rt, rr := f.R.Dims()
	if ln != n || rt != t || lr != rr || lr < 1 || lr > minInt(n, t) {
		return false
	}
	if opt.Rank > 0 && lr != opt.Rank {
		return false
	}
	return true
}

// ReconstructDetailed is Reconstruct with convergence diagnostics.
func ReconstructDetailed(s, b, avgV *mat.Dense, opt Options) (*Result, error) {
	return ReconstructWarm(s, b, avgV, nil, opt)
}

// ReconstructWarm is ReconstructDetailed with an optional warm start: when
// warm holds factors of a compatible shape, the ASD sweeps start from a
// copy of them instead of the truncated-SVD initialization, which lets a
// sliding-window caller reuse the previous window's factorization. On any
// shape or rank incompatibility (or nil warm) it silently falls back to
// the cold initialization; Result.WarmStarted reports which path ran.
func ReconstructWarm(s, b, avgV *mat.Dense, warm *Factors, opt Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	n, t := s.Dims()
	if n == 0 || t == 0 {
		return nil, fmt.Errorf("csrecon: empty sensory matrix")
	}
	if br, bc := b.Dims(); br != n || bc != t {
		return nil, fmt.Errorf("csrecon: B is %dx%d, want %dx%d", br, bc, n, t)
	}
	prob, err := newProblem(s, b, avgV, opt, n, t)
	if err != nil {
		return nil, err
	}
	var l, r *mat.Dense
	warmStarted := false
	if warm != nil && warm.usableFor(n, t, opt) {
		// The sweeps mutate the factors in place; copy so the caller's
		// previous-window result stays intact.
		l, r = warm.L.Clone(), warm.R.Clone()
		warmStarted = true
	} else {
		l, r, err = initFactors(s, b, opt)
		if err != nil {
			return nil, err
		}
	}
	res, err := prob.run(l, r, opt)
	if err != nil {
		return nil, err
	}
	res.WarmStarted = warmStarted
	return res, nil
}

// problem precomputes the constant pieces of the objective.
type problem struct {
	s, b *mat.Dense
	// sMasked = s∘b: the trusted observations.
	sMasked *mat.Dense
	// useStability records whether the 𝕋' term is active (false for
	// VariantBasic or single-column input). The operator is never
	// materialized: the fused kernels apply 𝕋' and 𝕋'ᵀ to one row at a
	// time in O(t).
	useStability bool
	// target is τ·V̄ restricted to the transition columns (n×(t−1));
	// all zeros for VariantTemporal.
	target  *mat.Dense
	lambda1 float64
	lambda2 float64
	// fixedStep, when positive, replaces the exact line search.
	fixedStep float64
	// ws is the scratch workspace shared by every sweep; allocated once
	// per factorization rank so steady-state ASD performs no heap
	// allocations.
	ws *workspace
}

// workspace holds every intermediate the fused ASD kernels need, sized
// once for the problem's n×t and the factorization rank r. Buffers are
// reused across sweeps; e1, g and rt are invalidated by each residuals
// call, dm and dt by each lineStats call, gram and chol by each
// precondition call.
type workspace struct {
	rank int
	// e1 = (LRᵀ−S)∘B and dm = D·Rᵀ (or L·Dᵀ): both n×t.
	e1, dm *mat.Dense
	// gl = ∇_L f (n×r), gr = ∇_R f (t×r).
	gl, gr *mat.Dense
	// rt = Rᵀ (written by residuals) and dt = Dᵀ (the R-step direction,
	// written by lineStats): the rank-wide factors transposed to r×t, so
	// every product's inner loop runs over t rather than over the rank.
	rt, dt []float64
	// fitT accumulates (E1ᵀ·L)ᵀ for gradR, r×t.
	fitT []float64
	// Stability-term scratch, nil when the 𝕋' term is inactive:
	// g = LRᵀ·𝕋'−target (n×(t−1)), stabT accumulates ((G·𝕋'ᵀ)ᵀ·L)ᵀ for
	// gradR (r×t), and row (t+r) holds one row of G·𝕋'ᵀ and its products
	// with R for the sequential gradient passes.
	g     *mat.Dense
	stabT []float64
	row   []float64
	// gram = FᵀF of the factor a step holds fixed and chol the Cholesky
	// factor of its regularized form: r×r row-major, lower triangles only.
	gram, chol []float64
}

// ensure returns the workspace for factorization rank r.Cols(), allocating
// it on first use or when the rank changes (which happens only between
// reconstructions, never inside the sweep loop).
func (p *problem) ensure(r *mat.Dense) *workspace {
	rank := r.Cols()
	if p.ws != nil && p.ws.rank == rank {
		return p.ws
	}
	n, t := p.s.Dims()
	ws := &workspace{
		rank: rank,
		e1:   mat.New(n, t),
		dm:   mat.New(n, t),
		gl:   mat.New(n, rank),
		gr:   mat.New(t, rank),
		rt:   make([]float64, rank*t),
		dt:   make([]float64, rank*t),
		fitT: make([]float64, rank*t),
		gram: make([]float64, rank*rank),
		chol: make([]float64, rank*rank),
	}
	if p.useStability {
		ws.g = mat.New(n, t-1)
		ws.stabT = make([]float64, rank*t)
		ws.row = make([]float64, t+rank)
	}
	p.ws = ws
	return ws
}

func newProblem(s, b, avgV *mat.Dense, opt Options, n, t int) (*problem, error) {
	sMasked, err := s.Hadamard(b)
	if err != nil {
		return nil, fmt.Errorf("csrecon: mask sensory matrix: %w", err)
	}
	p := &problem{
		s:         s,
		b:         b,
		sMasked:   sMasked,
		lambda1:   opt.Lambda1,
		lambda2:   opt.Lambda2,
		fixedStep: opt.FixedStepSize,
	}
	if opt.Variant == VariantBasic || t < 2 {
		return p, nil
	}
	p.useStability = true
	p.target = mat.New(n, t-1)
	if opt.Variant == VariantVelocityTemporal {
		if avgV == nil {
			return nil, fmt.Errorf("csrecon: %v requires the average velocity matrix", opt.Variant)
		}
		if vr, vc := avgV.Dims(); vr != n || vc != t {
			return nil, fmt.Errorf("csrecon: V̄ is %dx%d, want %dx%d", vr, vc, n, t)
		}
		tau := opt.Tau.Seconds()
		for i := 0; i < n; i++ {
			vrow := avgV.RowView(i)
			trow := p.target.RowView(i)
			for j := 1; j < t; j++ {
				trow[j-1] = vrow[j] * tau
			}
		}
	}
	return p, nil
}

// initFactors produces the ASD starting point: nearest-value fill of the
// missing cells followed by a truncated SVD (Algorithm 2 lines 2-8), or a
// small random factorization when RandomInit is set. When opt.Rank is zero
// the rank is chosen by the spectral-energy criterion.
func initFactors(s, b *mat.Dense, opt Options) (l, r *mat.Dense, err error) {
	n, t := s.Dims()
	maxRank := minInt(n, t)
	if opt.RandomInit {
		rank := opt.Rank
		if rank == 0 {
			// No spectrum to consult without the warm start; a quarter of
			// the minimal dimension is a generous over-parameterization
			// that the regularizers rein in.
			rank = maxInt(2, maxRank/4)
		}
		if rank > maxRank {
			rank = maxRank
		}
		rng := stat.NewRNG(opt.Seed).Child("asd-init")
		scale := s.MaxAbs()
		if scale == 0 {
			scale = 1
		}
		scale = math.Sqrt(scale / float64(rank))
		l = mat.New(n, rank)
		r = mat.New(t, rank)
		l.Apply(func(int, int, float64) float64 { return rng.NormFloat64() * scale })
		r.Apply(func(int, int, float64) float64 { return rng.NormFloat64() * scale })
		return l, r, nil
	}
	filled := nearestFill(s, b)
	full, err := mat.SVD(filled)
	if err != nil {
		return nil, nil, fmt.Errorf("csrecon: warm start SVD: %w", err)
	}
	rank := opt.Rank
	if rank == 0 {
		energy := opt.AutoRankEnergy
		if energy == 0 {
			energy = 0.95
		}
		rank = maxInt(2, full.RankForEnergy(energy))
	}
	if rank > maxRank {
		rank = maxRank
	}
	l = mat.New(n, rank)
	r = mat.New(t, rank)
	for k := 0; k < rank; k++ {
		root := math.Sqrt(full.S[k])
		for i := 0; i < n; i++ {
			l.Set(i, k, full.U.At(i, k)*root)
		}
		for j := 0; j < t; j++ {
			r.Set(j, k, full.V.At(j, k)*root)
		}
	}
	return l, r, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// nearestFill replaces untrusted cells (b == 0) with the nearest trusted
// value in the same row (ties resolve to the left neighbour). Rows with no
// trusted cells are filled with the column means of trusted cells in other
// rows, or zero if the whole matrix is untrusted. Rows are independent
// once the column stats are in, so the fill runs row-block parallel with
// per-worker index scratch.
func nearestFill(s, b *mat.Dense) *mat.Dense {
	n, t := s.Dims()
	out := s.Clone()
	colSum := make([]float64, t)
	colCount := make([]float64, t)
	for i := 0; i < n; i++ {
		brow := b.RowView(i)
		srow := s.RowView(i)
		for j := 0; j < t; j++ {
			if brow[j] != 0 {
				colSum[j] += srow[j]
				colCount[j]++
			}
		}
	}
	mat.ParallelRows(n, 4*t, func(lo, hi int) {
		left := make([]int, t)
		right := make([]int, t)
		for i := lo; i < hi; i++ {
			brow := b.RowView(i)
			srow := s.RowView(i)
			orow := out.RowView(i)
			// Nearest trusted index on each side of every cell.
			idx := -1
			for j := 0; j < t; j++ {
				if brow[j] != 0 {
					idx = j
				}
				left[j] = idx
			}
			idx = -1
			for j := t - 1; j >= 0; j-- {
				if brow[j] != 0 {
					idx = j
				}
				right[j] = idx
			}
			for j := 0; j < t; j++ {
				if brow[j] != 0 {
					continue
				}
				switch {
				case left[j] < 0 && right[j] < 0:
					// Fully untrusted row: fall back to the column mean.
					if colCount[j] > 0 {
						orow[j] = colSum[j] / colCount[j]
					} else {
						orow[j] = 0
					}
				case left[j] < 0:
					orow[j] = srow[right[j]]
				case right[j] < 0:
					orow[j] = srow[left[j]]
				case right[j]-j < j-left[j]:
					orow[j] = srow[right[j]]
				default:
					orow[j] = srow[left[j]]
				}
			}
		}
	})
	return out
}

// reconcileEvery is the sweep interval at which the incrementally tracked
// objective is replaced by an exact recomputation. The incremental update
// `next = obj − dropL − dropR` accumulates floating-point drift over
// hundreds of sweeps; an exact evaluation costs one residual pass — cheap
// relative to the K sweeps it anchors — and keeps the reported trace
// trustworthy.
const reconcileEvery = 25

// run performs the ASD sweeps (Algorithm 2 lines 9-18).
//
// The objective is tracked incrementally: along a fixed direction every
// term is quadratic in the step size, so the exact line search that yields
// α* = num/den also yields the new objective f(α*) = f(0) − num²/den.
// This avoids a third residual evaluation per sweep. The tracked value is
// reconciled with an exact evaluation every reconcileEvery sweeps and once
// at exit.
//
// Termination requires a small *non-negative* relative improvement: with a
// fixed step size a sweep can increase the objective (negative drop), and
// a negative ratio must read as "not converged", not as "converged". A
// zero objective (already at the optimum) terminates immediately.
func (p *problem) run(l, r *mat.Dense, opt Options) (*Result, error) {
	obj := p.objective(l, r)
	trace := make([]float64, 0, opt.MaxIters+1)
	trace = append(trace, obj)
	iters := 0
	for ; iters < opt.MaxIters; iters++ {
		dropL, err := p.step(l, r, true)
		if err != nil {
			return nil, err
		}
		dropR, err := p.step(l, r, false)
		if err != nil {
			return nil, err
		}
		next := obj - dropL - dropR
		if (iters+1)%reconcileEvery == 0 {
			next = p.objective(l, r)
		}
		trace = append(trace, next)
		if improved := obj - next; improved >= 0 {
			rel := 0.0
			if obj > 0 {
				rel = improved / obj
			}
			if rel < opt.TerminateRatio {
				obj = next
				iters++
				break
			}
		}
		obj = next
	}
	// Reconcile once at exit so Result.Objective is the exact objective at
	// the final factors, not the drifted incremental estimate.
	obj = p.objective(l, r)
	trace[len(trace)-1] = obj
	sHat, err := l.MulT(r)
	if err != nil {
		return nil, fmt.Errorf("csrecon: assemble reconstruction: %w", err)
	}
	return &Result{
		SHat:           sHat,
		Factors:        Factors{L: l, R: r},
		Iterations:     iters,
		Objective:      obj,
		ObjectiveTrace: trace,
	}, nil
}

// The four per-step kernels below are fused row passes. Each output
// element sums the same terms in the same order, starting from +0, as the
// composed matrix-primitive form it replaces (the composed form is kept as
// the reference in kernels_ref_test.go), so results are bit-identical to
// it and to themselves at every mat.SetParallelism:
//
//   - The products L·Rᵀ and D·Rᵀ (or L·Dᵀ) read the rank-wide factor
//     transposed (ws.rt or ws.dt, r×t) and accumulate over k into a whole
//     row, so the inner loop runs over t instead of the rank; E1·R and
//     (G·𝕋'ᵀ)·R are dot products against the same transposed rows.
//   - Where the composed form stored an intermediate (m∘B before −S∘B,
//     2·∇ before +2λ₁·L), the fused form rounds it with an explicit
//     float64 conversion, which forbids FMA contraction across it.
//   - The composed products skipped zero left operands. Dropping the skip
//     is bit-equal for finite factors: a ±0 term leaves a nonzero
//     accumulator unchanged, and an accumulator that starts at +0 stays
//     +0 under a ±0 term, so it never becomes −0. For the same reason the
//     sign of a zero in a row of G·𝕋'ᵀ, which only ever multiplies into
//     such accumulators, cannot reach an output.
//
// Above mat's parallel cutoff the row work (and gradR's column ranges)
// splits with mat.ParallelRows; each row or column is computed by exactly
// one worker in the sequential order. The sequential branch builds no
// closure, so steady-state sweeps stay allocation-free.

// residuals computes E1 = (LRᵀ − S)∘B and, when the stability term is
// active, G = LRᵀ·𝕋' − target. The returned matrices are workspace
// buffers, valid until the next residuals call on this problem.
func (p *problem) residuals(l, r *mat.Dense) (e1, g *mat.Dense, err error) {
	ws := p.ensure(r)
	if err := p.checkFactors(l, r); err != nil {
		return nil, nil, err
	}
	transposeInto(ws.rt, r)
	n, t := p.s.Dims()
	if !mat.ParallelWorthwhile(n, ws.rank*t) {
		p.residualRows(l, ws, 0, n)
	} else {
		mat.ParallelRows(n, ws.rank*t, func(lo, hi int) { p.residualRows(l, ws, lo, hi) })
	}
	return ws.e1, ws.g, nil
}

// checkFactors validates L (n×r) and R (t×r) against the problem shape.
func (p *problem) checkFactors(l, r *mat.Dense) error {
	n, t := p.s.Dims()
	if l.Rows() != n || r.Rows() != t || l.Cols() != r.Cols() {
		return fmt.Errorf("%w: factors %dx%d and %dx%d for a %dx%d problem",
			mat.ErrShape, l.Rows(), l.Cols(), r.Rows(), r.Cols(), n, t)
	}
	return nil
}

// residualRows forms rows [lo, hi) of M = L·Rᵀ in place in E1's rows, then
// rewrites each to E1 = float64(M∘B) − S∘B while emitting G from the
// unmasked values. Column j of M·𝕋' is the transition m(i,j+1) − m(i,j),
// aligned with +τ·V̄(i,j+1): the sign is irrelevant for the pure temporal
// penalty but must match the velocity target in the full variant.
func (p *problem) residualRows(l *mat.Dense, ws *workspace, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := ws.e1.RowView(i)
		productRow(row, l.RowView(i), ws.rt)
		brow, srow := p.b.RowView(i), p.sMasked.RowView(i)
		if ws.g == nil {
			for j, m := range row {
				row[j] = float64(m*brow[j]) - srow[j]
			}
			continue
		}
		grow, trow := ws.g.RowView(i), p.target.RowView(i)
		prev := row[0]
		row[0] = float64(prev*brow[0]) - srow[0]
		for j := 1; j < len(row); j++ {
			m := row[j]
			grow[j-1] = float64(m-prev) - trow[j-1]
			row[j] = float64(m*brow[j]) - srow[j]
			prev = m
		}
	}
}

// productRow sets dst = Σ_k a[k]·ft[k·t : (k+1)·t] with t = len(dst): one
// row of a factor product against a transposed factor. Every element sums
// its k terms in ascending order from +0, as mat's dot-product kernel
// does; four terms are added per load and store of dst.
func productRow(dst, a, ft []float64) {
	t := len(dst)
	clear(dst)
	k := 0
	for ; k+4 <= len(a); k += 4 {
		a0, a1, a2, a3 := a[k], a[k+1], a[k+2], a[k+3]
		f0, f1, f2, f3 := ft[k*t:][:t], ft[(k+1)*t:][:t], ft[(k+2)*t:][:t], ft[(k+3)*t:][:t]
		for j, v := range dst {
			v += a0 * f0[j]
			v += a1 * f1[j]
			v += a2 * f2[j]
			v += a3 * f3[j]
			dst[j] = v
		}
	}
	for ; k < len(a); k++ {
		av, f := a[k], ft[k*t:][:t]
		for j, fv := range f {
			dst[j] += av * fv
		}
	}
}

// dotsInto sets out[k] = Σ_j x[j]·ft[k·t+j] with t = len(x): the products
// of one row with every row of a transposed factor, each summed in
// ascending j from +0 (as mat's ikj kernel accumulates it), four
// independent sums per pass over x.
func dotsInto(out, x, ft []float64) {
	t := len(x)
	k := 0
	for ; k+4 <= len(out); k += 4 {
		f0, f1, f2, f3 := ft[k*t:][:t], ft[(k+1)*t:][:t], ft[(k+2)*t:][:t], ft[(k+3)*t:][:t]
		var s0, s1, s2, s3 float64
		for j, xv := range x {
			s0 += xv * f0[j]
			s1 += xv * f1[j]
			s2 += xv * f2[j]
			s3 += xv * f3[j]
		}
		out[k], out[k+1], out[k+2], out[k+3] = s0, s1, s2, s3
	}
	for ; k < len(out); k++ {
		f := ft[k*t:][:t]
		var s float64
		for j, xv := range x {
			s += xv * f[j]
		}
		out[k] = s
	}
}

// accumulateRows adds x·a[k] to columns [lo, lo+len(x)) of every row k of
// the r×t accumulator acc, four rows per pass over x.
func accumulateRows(acc []float64, t, lo int, x, a []float64) {
	w := len(x)
	k := 0
	for ; k+4 <= len(a); k += 4 {
		a0, a1, a2, a3 := a[k], a[k+1], a[k+2], a[k+3]
		r0, r1, r2, r3 := acc[k*t+lo:][:w], acc[(k+1)*t+lo:][:w], acc[(k+2)*t+lo:][:w], acc[(k+3)*t+lo:][:w]
		for j, xv := range x {
			r0[j] += xv * a0
			r1[j] += xv * a1
			r2[j] += xv * a2
			r3[j] += xv * a3
		}
	}
	for ; k < len(a); k++ {
		av, rk := a[k], acc[k*t+lo:][:w]
		for j, xv := range x {
			rk[j] += xv * av
		}
	}
}

// transposeInto writes the rows×cols matrix m transposed into dst
// (cols×rows, row-major).
func transposeInto(dst []float64, m *mat.Dense) {
	rows, cols := m.Dims()
	src := m.RawData()
	for k := 0; k < cols; k++ {
		out := dst[k*rows:][:rows]
		for i := range out {
			out[i] = src[i*cols+k]
		}
	}
}

// adjointRange writes columns [lo, hi) of one row of G·𝕋'ᵀ into dst[:hi−lo]:
// (G·𝕋'ᵀ)(i,j) = g(i,j−1) − g(i,j), with out-of-range terms zero.
func adjointRange(dst, grow []float64, lo, hi int) {
	tm1, off := len(grow), lo
	dst = dst[:hi-lo]
	if lo == 0 {
		dst[0] = 0 - grow[0]
		lo = 1
	}
	if hi == tm1+1 {
		dst[tm1-off] = grow[tm1-1]
		hi = tm1
	}
	for j := lo; j < hi; j++ {
		dst[j-off] = grow[j-1] - grow[j]
	}
}

// objective evaluates Eq. (23) (or its reduced variants) at (L, R).
func (p *problem) objective(l, r *mat.Dense) float64 {
	e1, g, err := p.residuals(l, r)
	if err != nil {
		// Shapes are validated at construction; failure here is a bug.
		panic(fmt.Sprintf("csrecon: objective residuals: %v", err))
	}
	obj := e1.FrobeniusNorm2() + p.lambda1*(l.FrobeniusNorm2()+r.FrobeniusNorm2())
	if g != nil {
		obj += p.lambda2 * g.FrobeniusNorm2()
	}
	return obj
}

// step performs one ScaledASD update on L (updateL) or R with the exact
// analytic line search: the gradient is scaled into the direction D by
// precondition, and every objective term is quadratic in the step size α
// along D, so α* has a closed form. It returns the exact objective
// decrease num²/den achieved by the step.
func (p *problem) step(l, r *mat.Dense, updateL bool) (drop float64, err error) {
	e1, g, err := p.residuals(l, r)
	if err != nil {
		return 0, err
	}
	var dir *mat.Dense
	fixed := r
	if updateL {
		dir, err = p.gradL(l, r, e1, g)
	} else {
		dir, err = p.gradR(l, r, e1, g)
		fixed = l
	}
	if err != nil {
		return 0, err
	}
	if dir.MaxAbs() == 0 {
		return 0, nil
	}
	p.precondition(dir, fixed)
	num, den, err := p.lineStats(l, r, dir, e1, g, updateL)
	if err != nil {
		return 0, err
	}
	if den <= 0 || math.IsNaN(den) || math.IsInf(den, 0) {
		return 0, nil
	}
	alpha := num / den
	if p.fixedStep > 0 {
		alpha = p.fixedStep
	}
	if alpha == 0 {
		return 0, nil
	}
	// Exact objective change along the quadratic: f(0) − f(α) = 2α·num − α²·den
	// (num²/den at the exact minimizer; possibly negative for a fixed step).
	drop = 2*alpha*num - alpha*alpha*den
	if updateL {
		return drop, l.AxpyInPlace(-alpha, dir)
	}
	return drop, r.AxpyInPlace(-alpha, dir)
}

// gramJitter is the relative ridge added to each diagonal entry of the
// Gram before factorization. It keeps the condition number of the Gram's
// correlation form under about r·10¹² when factor columns are nearly
// collinear, and adds nothing to a zero column, so a truly singular Gram
// still fails the factorization.
const gramJitter = 1e-12

// precondition turns the gradient grad into the ScaledASD direction
// D = ∇·(FᵀF + λ₁I)⁻¹ in place, where F is the factor the step holds
// fixed (Tanner & Wei, ACHA 2016). num = ½⟨∇, D⟩ is then positive, so D is
// a descent direction, and the line search stays exact along it. When the
// regularized Gram does not factor (a non-positive or non-finite pivot,
// possible only with λ₁ = 0 and a rank-deficient F, or with non-finite
// factors) it returns false and leaves grad as it is: that half-step
// takes the plain steepest-descent direction.
//
// The work is O((n+t)·r²) against the kernels' O(n·t·r) and runs
// sequentially, so it is bit-identical at every mat.SetParallelism.
func (p *problem) precondition(grad, fixed *mat.Dense) bool {
	ws := p.ensure(fixed)
	gramInto(ws.gram, fixed)
	if !choleskyInto(ws.chol, ws.gram, ws.rank, p.lambda1) {
		return false
	}
	for i := 0; i < grad.Rows(); i++ {
		solveRow(grad.RowView(i), ws.chol)
	}
	return true
}

// gramInto sets the lower triangle of the r×r gram = FᵀF for the rows×r
// factor f, which is all choleskyInto reads. Each entry sums its row
// terms in ascending order from +0, as mat's dot-product kernel sums
// Fᵀ·(Fᵀ)ᵀ.
func gramInto(gram []float64, f *mat.Dense) {
	rows, r := f.Dims()
	clear(gram)
	for i := 0; i < rows; i++ {
		row := f.RowView(i)
		for k, fk := range row {
			gk := gram[k*r:][:k+1]
			for l := range gk {
				gk[l] += fk * row[l]
			}
		}
	}
}

// choleskyInto writes into the lower triangle of c the Cholesky factor C
// of gram + λ₁I + gramJitter·diag(gram), so that C·Cᵀ is the regularized
// Gram. It reports false on the first pivot that is not positive and
// finite.
func choleskyInto(c, gram []float64, r int, lambda1 float64) bool {
	for k := 0; k < r; k++ {
		ck := c[k*r:][:k+1]
		for l := range ck {
			cl := c[l*r:][:l+1]
			v := gram[k*r+l]
			if l == k {
				v += gramJitter*v + lambda1
			}
			for m, cv := range cl[:l] {
				v -= ck[m] * cv
			}
			if l < k {
				ck[l] = v / cl[l]
				continue
			}
			if !(v > 0) || math.IsInf(v, 0) {
				return false
			}
			ck[k] = math.Sqrt(v)
		}
	}
	return true
}

// solveRow overwrites the row vector x with x·(C·Cᵀ)⁻¹ for the r×r
// lower-triangular Cholesky factor c, r = len(x): forward substitution
// through C, then back substitution through Cᵀ.
func solveRow(x, c []float64) {
	r := len(x)
	for k := range x {
		v := x[k]
		for m, cv := range c[k*r:][:k] {
			v -= cv * x[m]
		}
		x[k] = v / c[k*r+k]
	}
	for k := r - 1; k >= 0; k-- {
		v := x[k]
		for m := k + 1; m < r; m++ {
			v -= c[m*r+k] * x[m]
		}
		x[k] = v / c[k*r+k]
	}
}

// gradL computes ∇_L f = 2·E1·R + 2λ₁·L + 2λ₂·G·𝕋'ᵀ·R into the workspace
// buffer ws.gl, valid until the next gradL call on this problem. e1 and g
// must come from residuals at the same (L, R), which also left Rᵀ in ws.rt.
func (p *problem) gradL(l, r, e1, g *mat.Dense) (*mat.Dense, error) {
	ws := p.ensure(r)
	if err := p.checkFactors(l, r); err != nil {
		return nil, err
	}
	n, t := p.s.Dims()
	if !mat.ParallelWorthwhile(n, ws.rank*t) {
		p.gradLRows(l, e1, g, ws, ws.row, 0, n)
	} else {
		mat.ParallelRows(n, ws.rank*t, func(lo, hi int) {
			var row []float64
			if g != nil {
				row = make([]float64, t+ws.rank)
			}
			p.gradLRows(l, e1, g, ws, row, lo, hi)
		})
	}
	return ws.gl, nil
}

// gradLRows computes rows [lo, hi) of ∇_L f. Each row of G·𝕋'ᵀ is formed
// once into row[:t] and its products with R land in row[t:].
func (p *problem) gradLRows(l, e1, g *mat.Dense, ws *workspace, row []float64, lo, hi int) {
	_, t := p.s.Dims()
	c1, c2 := 2*p.lambda1, 2*p.lambda2
	for i := lo; i < hi; i++ {
		lrow, grad := l.RowView(i), ws.gl.RowView(i)
		dotsInto(grad, e1.RowView(i), ws.rt) // E1·R, as the composed form stored it
		var stab []float64
		if g != nil {
			adj := row[:t]
			stab = row[t:]
			adjointRange(adj, g.RowView(i), 0, t)
			dotsInto(stab, adj, ws.rt)
		}
		for k, v := range grad {
			v = float64(float64(2*v) + c1*lrow[k])
			if g != nil {
				v += c2 * stab[k]
			}
			grad[k] = v
		}
	}
}

// gradR computes ∇_R f = 2·E1ᵀ·L + 2λ₁·R + 2λ₂·𝕋'·Gᵀ·L into the workspace
// buffer ws.gr, valid until the next gradR call on this problem. e1 and g
// must come from residuals at the same (L, R).
func (p *problem) gradR(l, r, e1, g *mat.Dense) (*mat.Dense, error) {
	ws := p.ensure(r)
	if err := p.checkFactors(l, r); err != nil {
		return nil, err
	}
	n, t := p.s.Dims()
	// Like mat's Eᵀ·L kernel, the split is over output columns j: every
	// worker scans all n rows, so each element's i-order is sequential.
	if !mat.ParallelWorthwhile(t, n*ws.rank) {
		p.gradRCols(l, r, e1, g, ws, ws.row, 0, t)
	} else {
		mat.ParallelRows(t, n*ws.rank, func(lo, hi int) {
			var adj []float64
			if g != nil {
				adj = make([]float64, hi-lo)
			}
			p.gradRCols(l, r, e1, g, ws, adj, lo, hi)
		})
	}
	return ws.gr, nil
}

// gradRCols computes rows [lo, hi) of ∇_R f (columns of the n×t inputs).
// E1ᵀ·L and (G·𝕋'ᵀ)ᵀ·L accumulate transposed in ws.fitT and ws.stabT, so
// the inner loop runs over the column range; adj holds the range of one
// row of G·𝕋'ᵀ at a time.
func (p *problem) gradRCols(l, r, e1, g *mat.Dense, ws *workspace, adj []float64, lo, hi int) {
	n, t := p.s.Dims()
	w := hi - lo
	for k := 0; k < ws.rank; k++ {
		clear(ws.fitT[k*t+lo:][:w])
		if g != nil {
			clear(ws.stabT[k*t+lo:][:w])
		}
	}
	for i := 0; i < n; i++ {
		lrow := l.RowView(i)
		accumulateRows(ws.fitT, t, lo, e1.RowView(i)[lo:hi], lrow)
		if g != nil {
			adjointRange(adj, g.RowView(i), lo, hi)
			accumulateRows(ws.stabT, t, lo, adj[:w], lrow)
		}
	}
	c1, c2 := 2*p.lambda1, 2*p.lambda2
	for j := lo; j < hi; j++ {
		rrow, grad := r.RowView(j), ws.gr.RowView(j)
		for k := range grad {
			v := float64(float64(2*ws.fitT[k*t+j]) + c1*rrow[k])
			if g != nil {
				v += c2 * ws.stabT[k*t+j]
			}
			grad[k] = v
		}
	}
}

// lineStats computes the quadratic coefficients of f along −dir:
// f(α) = f(0) − 2α·num + α²·den, so the exact minimizer is α* = num/den.
// The coefficients are exact for any direction D: num = ½⟨∇f, D⟩ and den
// is the curvature of f along D.
//
// For the L step with direction D: P1 = (D·Rᵀ)∘B, P3 = D·Rᵀ·𝕋',
// num = ⟨E1,P1⟩ + λ₁⟨L,D⟩ + λ₂⟨G,P3⟩, den = ‖P1‖² + λ₁‖D‖² + λ₂‖P3‖²,
// and symmetrically for the R step with P1 = (L·Dᵀ)∘B, P3 = L·Dᵀ·𝕋'.
//
// The product rows land in ws.dm; P1 and P3 are formed on the fly and
// never stored. Each of the four sums is one sequential row-major chain,
// so on the parallel path only the products split across workers and the
// sums follow in a single pass.
func (p *problem) lineStats(l, r, dir, e1, g *mat.Dense, updateL bool) (num, den float64, err error) {
	ws := p.ensure(r)
	if err := p.checkFactors(l, r); err != nil {
		return 0, 0, err
	}
	left, ft, anchor := dir, ws.rt, l // D·Rᵀ, with Rᵀ left by residuals
	if !updateL {
		left, ft, anchor = l, ws.dt, r // L·Dᵀ
	}
	// ⟨anchor, D⟩ first: Dot also validates the direction's shape.
	dotAnchor, err := anchor.Dot(dir)
	if err != nil {
		return 0, 0, err
	}
	if !updateL {
		transposeInto(ws.dt, dir)
	}
	n, t := p.s.Dims()
	fused := !mat.ParallelWorthwhile(n, ws.rank*t)
	if !fused {
		mat.ParallelRows(n, ws.rank*t, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				productRow(ws.dm.RowView(i), left.RowView(i), ft)
			}
		})
	}
	var fitNum, fitDen, stabNum, stabDen float64
	for i := 0; i < n; i++ {
		dm := ws.dm.RowView(i)
		if fused {
			productRow(dm, left.RowView(i), ft)
		}
		brow, erow := p.b.RowView(i)[:len(dm)], e1.RowView(i)[:len(dm)]
		for j, d := range dm {
			p1 := float64(d * brow[j])
			fitNum += erow[j] * p1
			fitDen += p1 * p1
		}
		if g == nil {
			continue
		}
		grow := g.RowView(i)[:len(dm)-1]
		for j, gv := range grow {
			p3 := float64(dm[j+1] - dm[j])
			stabNum += gv * p3
			stabDen += p3 * p3
		}
	}
	num = fitNum + p.lambda1*dotAnchor
	den = fitDen + p.lambda1*dir.FrobeniusNorm2()
	if g != nil {
		num += p.lambda2 * stabNum
		den += p.lambda2 * stabDen
	}
	return num, den, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
