package csrecon

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"itscs/internal/mat"
	"itscs/internal/motion"
	"itscs/internal/stat"
)

// This file keeps the composed form of one ASD step — the per-step kernels
// built from whole-matrix primitives, one full pass per primitive — as
// the reference the fused row passes in csrecon.go must match bit for bit.
// The products and element-wise ops below exist only for this reference.
// Each keeps the loop order the fused passes reproduce; the reference runs
// at one worker, so every product is one sequential pass.

// sameDims errors unless m is r×c.
func sameDims(m *mat.Dense, r, c int) error {
	if mr, mc := m.Dims(); mr != r || mc != c {
		return fmt.Errorf("%w: %dx%d, want %dx%d", mat.ErrShape, mr, mc, r, c)
	}
	return nil
}

// mulInto computes dst = a·b in ikj order, skipping zero terms of a.
func mulInto(dst, a, b *mat.Dense) error {
	n, k := a.Dims()
	_, m := b.Dims()
	if err := sameDims(b, k, m); err != nil {
		return err
	}
	if err := sameDims(dst, n, m); err != nil {
		return err
	}
	ad, bd, dd := a.RawData(), b.RawData(), dst.RawData()
	for i := 0; i < n; i++ {
		arow := ad[i*k : (i+1)*k]
		drow := dd[i*m : (i+1)*m]
		for j := range drow {
			drow[j] = 0
		}
		for kk, av := range arow {
			if av == 0 {
				continue
			}
			brow := bd[kk*m:][:len(drow)]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
	return nil
}

// mulTInto computes dst = a·bᵀ with mat's dot-product kernel.
func mulTInto(dst, a, b *mat.Dense) error {
	p, err := a.MulT(b)
	if err != nil {
		return err
	}
	if err := sameDims(dst, p.Rows(), p.Cols()); err != nil {
		return err
	}
	copy(dst.RawData(), p.RawData())
	return nil
}

// tMulInto computes dst = aᵀ·b, accumulating over the rows of a and b in
// order and skipping zero terms of a.
func tMulInto(dst, a, b *mat.Dense) error {
	k, n := a.Dims()
	_, m := b.Dims()
	if err := sameDims(b, k, m); err != nil {
		return err
	}
	if err := sameDims(dst, n, m); err != nil {
		return err
	}
	ad, bd, dd := a.RawData(), b.RawData(), dst.RawData()
	for i := range dd {
		dd[i] = 0
	}
	for kk := 0; kk < k; kk++ {
		arow := ad[kk*n : (kk+1)*n]
		brow := bd[kk*m : (kk+1)*m]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := dd[i*m:][:len(brow)]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
	return nil
}

// hadamardInto computes dst = a ∘ b; dst may alias an operand.
func hadamardInto(dst, a, b *mat.Dense) error {
	r, c := a.Dims()
	if err := sameDims(b, r, c); err != nil {
		return err
	}
	if err := sameDims(dst, r, c); err != nil {
		return err
	}
	ad, bd, dd := a.RawData(), b.RawData(), dst.RawData()
	for i := range dd {
		dd[i] = ad[i] * bd[i]
	}
	return nil
}

// subInPlace computes m −= other element-wise.
func subInPlace(m, other *mat.Dense) error {
	if err := sameDims(other, m.Rows(), m.Cols()); err != nil {
		return err
	}
	md, od := m.RawData(), other.RawData()
	for i := range md {
		md[i] -= od[i]
	}
	return nil
}

// applyDiff computes M·𝕋' in O(n·t), where 𝕋' is Eq. (24)'s operator with
// the first column dropped: column j of the result is the transition
// m(i,j+1) − m(i,j), aligned with +τ·V̄(i,j+1).
func applyDiff(m *mat.Dense) *mat.Dense {
	n, t := m.Dims()
	out := mat.New(n, t-1)
	applyDiffInto(out, m)
	return out
}

// applyDiffInto is the allocation-free form of applyDiff; out must be
// pre-sized to n×(t−1).
func applyDiffInto(out, m *mat.Dense) {
	n, t := m.Dims()
	for i := 0; i < n; i++ {
		src := m.RowView(i)
		dst := out.RowView(i)
		for j := 0; j < t-1; j++ {
			dst[j] = src[j+1] - src[j]
		}
	}
}

// applyDiffAdjoint computes G·𝕋'ᵀ in O(n·t):
// (G·𝕋'ᵀ)(i,j) = g(i,j−1) − g(i,j) with out-of-range terms zero.
func applyDiffAdjoint(g *mat.Dense) *mat.Dense {
	n, tm1 := g.Dims()
	out := mat.New(n, tm1+1)
	applyDiffAdjointInto(out, g)
	return out
}

// applyDiffAdjointInto is the allocation-free form of applyDiffAdjoint;
// out must be pre-sized to n×t for an n×(t−1) input.
func applyDiffAdjointInto(out, g *mat.Dense) {
	n, tm1 := g.Dims()
	t := tm1 + 1
	for i := 0; i < n; i++ {
		src := g.RowView(i)
		dst := out.RowView(i)
		for j := 0; j < t; j++ {
			var v float64
			if j-1 >= 0 && j-1 < tm1 {
				v += src[j-1]
			}
			if j < tm1 {
				v -= src[j]
			}
			dst[j] = v
		}
	}
}

// refWorkspace is the scratch of the composed step: every intermediate is
// a full matrix.
type refWorkspace struct {
	m, e1, dm, p1 *mat.Dense
	gl, gr        *mat.Dense
	g, p3, adj    *mat.Dense
	tl, tr        *mat.Dense
	chol          []float64
}

func newRefWorkspace(p *problem, rank int) *refWorkspace {
	n, t := p.s.Dims()
	ws := &refWorkspace{
		m:    mat.New(n, t),
		e1:   mat.New(n, t),
		dm:   mat.New(n, t),
		p1:   mat.New(n, t),
		gl:   mat.New(n, rank),
		gr:   mat.New(t, rank),
		chol: make([]float64, rank*rank),
	}
	if p.useStability {
		ws.g = mat.New(n, t-1)
		ws.p3 = mat.New(n, t-1)
		ws.adj = mat.New(n, t)
		ws.tl = mat.New(n, rank)
		ws.tr = mat.New(t, rank)
	}
	return ws
}

func (ws *refWorkspace) residuals(p *problem, l, r *mat.Dense) (e1, g *mat.Dense, err error) {
	if err := mulTInto(ws.m, l, r); err != nil {
		return nil, nil, err
	}
	if err := hadamardInto(ws.e1, ws.m, p.b); err != nil {
		return nil, nil, err
	}
	if err := subInPlace(ws.e1, p.sMasked); err != nil {
		return nil, nil, err
	}
	if !p.useStability {
		return ws.e1, nil, nil
	}
	applyDiffInto(ws.g, ws.m)
	if err := subInPlace(ws.g, p.target); err != nil {
		return nil, nil, err
	}
	return ws.e1, ws.g, nil
}

func (ws *refWorkspace) gradL(p *problem, l, r, e1, g *mat.Dense) (*mat.Dense, error) {
	if err := mulInto(ws.gl, e1, r); err != nil {
		return nil, err
	}
	ws.gl.Scale(2)
	if err := ws.gl.AxpyInPlace(2*p.lambda1, l); err != nil {
		return nil, err
	}
	if g != nil {
		applyDiffAdjointInto(ws.adj, g)
		if err := mulInto(ws.tl, ws.adj, r); err != nil {
			return nil, err
		}
		if err := ws.gl.AxpyInPlace(2*p.lambda2, ws.tl); err != nil {
			return nil, err
		}
	}
	return ws.gl, nil
}

func (ws *refWorkspace) gradR(p *problem, l, r, e1, g *mat.Dense) (*mat.Dense, error) {
	if err := tMulInto(ws.gr, e1, l); err != nil {
		return nil, err
	}
	ws.gr.Scale(2)
	if err := ws.gr.AxpyInPlace(2*p.lambda1, r); err != nil {
		return nil, err
	}
	if g != nil {
		applyDiffAdjointInto(ws.adj, g)
		if err := tMulInto(ws.tr, ws.adj, l); err != nil {
			return nil, err
		}
		if err := ws.gr.AxpyInPlace(2*p.lambda2, ws.tr); err != nil {
			return nil, err
		}
	}
	return ws.gr, nil
}

// precondition scales grad in place into the ScaledASD direction, with the
// Gram FᵀF taken from mat's transpose and dot-product kernel; the factor
// and the row solves are the package's, which TestPreconditioner checks
// against a direct product.
func (ws *refWorkspace) precondition(p *problem, grad, fixed *mat.Dense) error {
	ft := fixed.T()
	gram, err := ft.MulT(ft)
	if err != nil {
		return err
	}
	if choleskyInto(ws.chol, gram.RawData(), fixed.Cols(), p.lambda1) {
		for i := 0; i < grad.Rows(); i++ {
			solveRow(grad.RowView(i), ws.chol)
		}
	}
	return nil
}

func (ws *refWorkspace) lineStats(p *problem, l, r, grad, e1, g *mat.Dense, updateL bool) (num, den float64, err error) {
	if updateL {
		err = mulTInto(ws.dm, grad, r)
	} else {
		err = mulTInto(ws.dm, l, grad)
	}
	if err != nil {
		return 0, 0, err
	}
	if err := hadamardInto(ws.p1, ws.dm, p.b); err != nil {
		return 0, 0, err
	}
	num, err = e1.Dot(ws.p1)
	if err != nil {
		return 0, 0, err
	}
	den = ws.p1.FrobeniusNorm2()
	anchor := r
	if updateL {
		anchor = l
	}
	dotAnchor, err := anchor.Dot(grad)
	if err != nil {
		return 0, 0, err
	}
	num += p.lambda1 * dotAnchor
	den += p.lambda1 * grad.FrobeniusNorm2()
	if g != nil {
		applyDiffInto(ws.p3, ws.dm)
		dotG, err := g.Dot(ws.p3)
		if err != nil {
			return 0, 0, err
		}
		num += p.lambda2 * dotG
		den += p.lambda2 * ws.p3.FrobeniusNorm2()
	}
	return num, den, nil
}

// step mirrors problem.step over the composed kernels.
func (ws *refWorkspace) step(p *problem, l, r *mat.Dense, updateL bool) (float64, error) {
	e1, g, err := ws.residuals(p, l, r)
	if err != nil {
		return 0, err
	}
	var grad *mat.Dense
	fixed := r
	if updateL {
		grad, err = ws.gradL(p, l, r, e1, g)
	} else {
		grad, err = ws.gradR(p, l, r, e1, g)
		fixed = l
	}
	if err != nil {
		return 0, err
	}
	if grad.MaxAbs() == 0 {
		return 0, nil
	}
	if err := ws.precondition(p, grad, fixed); err != nil {
		return 0, err
	}
	num, den, err := ws.lineStats(p, l, r, grad, e1, g, updateL)
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
	drop := 2*alpha*num - alpha*alpha*den
	if updateL {
		return drop, l.AxpyInPlace(-alpha, grad)
	}
	return drop, r.AxpyInPlace(-alpha, grad)
}

// refSweeps is the sweep count of the bit-identity comparison; raceSweeps
// replaces it under the race detector.
const (
	refSweeps  = 300
	raceSweeps = 20
)

// refFixture is a noisy near-low-rank problem with dropped cells, so E1
// carries exact zeros (the composed kernels' skipped terms) and the
// higher ranks have residual structure to fit.
func refFixture(n, t int, variant Variant, seed int64) (s, b, avgV *mat.Dense) {
	x, v := lowRankFixture(n, t, seed)
	rng := stat.NewRNG(seed + 1)
	x.Apply(func(_, _ int, val float64) float64 { return val + rng.NormFloat64()*50 })
	b = dropCells(n, t, n*t/5, seed+2)
	s, err := x.Hadamard(b)
	if err != nil {
		panic(err)
	}
	if variant == VariantVelocityTemporal {
		avgV = motion.AverageVelocity(v)
	}
	return s, b, avgV
}

// TestFusedKernelsBitIdenticalToComposed runs the composed reference and
// the fused step in lockstep from cloned factors, the fused step once at
// each GOMAXPROCS 1 and 2, and demands every step's drop and every L
// and R element bit-equal after every sweep. It covers every variant,
// both step rules and ranks 1–8 (clamped to the shape). 158×240 is above
// mat's parallel cutoff from rank 2 on, so its GOMAXPROCS-2 runs take the
// split row and column passes.
//
// Under -short the paper shape keeps rank 7 alone: one blocked group of
// four plus the remainder loop, split across workers. Under the race
// detector, which slows these loops about twentyfold, only that case runs
// and for raceSweeps sweeps: the race run is there for the concurrent
// path, whose bits the plain run already pins.
func TestFusedKernelsBitIdenticalToComposed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	shapes := []struct {
		n, t     int
		parallel bool
	}{
		{16, 48, false},  // stream window
		{1, 48, false},   // single participant
		{9, 1, false},    // single slot: no stability term
		{5, 7, false},    // rank bounded by both sides
		{158, 240, true}, // paper scale, parallel above the cutoff
	}
	sweeps := refSweeps
	if raceEnabled {
		sweeps = raceSweeps
	}
	for _, sh := range shapes {
		if raceEnabled && !sh.parallel {
			continue
		}
		ranks := make([]int, 0, 8)
		for rank := 1; rank <= min(8, sh.n, sh.t); rank++ {
			ranks = append(ranks, rank)
		}
		if sh.parallel && (testing.Short() || raceEnabled) {
			ranks = []int{7}
		}
		for _, variant := range []Variant{VariantBasic, VariantTemporal, VariantVelocityTemporal} {
			s, b, avgV := refFixture(sh.n, sh.t, variant, int64(sh.n*1000+sh.t))
			for _, rank := range ranks {
				for _, rule := range []string{"exact", "fixed"} {
					name := fmt.Sprintf("%dx%d/%v/%s/rank%d", sh.n, sh.t, variant, rule, rank)
					t.Run(name, func(t *testing.T) {
						compareSweeps(t, s, b, avgV, variant, rank, rule == "fixed", sweeps)
					})
				}
			}
		}
	}
}

// compareSweeps runs the given number of sweeps of the composed reference
// at GOMAXPROCS 1 and of the fused step at GOMAXPROCS 1 and 2, from random
// factors.
func compareSweeps(t *testing.T, s, b, avgV *mat.Dense, variant Variant, rank int, fixed bool, sweeps int) {
	t.Helper()
	n, tt := s.Dims()
	opt := DefaultOptions()
	opt.Variant = variant
	opt.Rank = rank
	l, r := randomFactors(s, rank)
	// Separate problems: each owns its workspace.
	probs := make([]*problem, 3) // reference, fused at GOMAXPROCS 1, fused at 2
	var err error
	for i := range probs {
		if probs[i], err = newProblem(s, b, avgV, opt, n, tt); err != nil {
			t.Fatal(err)
		}
	}
	ref := newRefWorkspace(probs[0], rank)
	if fixed {
		// Half the smaller exact first step of either factor along its
		// scaled direction: a fixed rule that keeps descending for the
		// whole run.
		e1, g, err := ref.residuals(probs[0], l, r)
		if err != nil {
			t.Fatal(err)
		}
		gl, err := ref.gradL(probs[0], l, r, e1, g)
		if err == nil {
			err = ref.precondition(probs[0], gl, r)
		}
		if err != nil {
			t.Fatal(err)
		}
		numL, denL, err := ref.lineStats(probs[0], l, r, gl, e1, g, true)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := ref.gradR(probs[0], l, r, e1, g)
		if err == nil {
			err = ref.precondition(probs[0], gr, l)
		}
		if err != nil {
			t.Fatal(err)
		}
		numR, denR, err := ref.lineStats(probs[0], l, r, gr, e1, g, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range probs {
			p.fixedStep = 0.5 * math.Min(numL/denL, numR/denR)
		}
	}
	ls := []*mat.Dense{l.Clone(), l.Clone(), l}
	rs := []*mat.Dense{r.Clone(), r.Clone(), r}
	for sweep := 0; sweep < sweeps; sweep++ {
		for _, updateL := range []bool{true, false} {
			runtime.GOMAXPROCS(1)
			want, err := ref.step(probs[0], ls[0], rs[0], updateL)
			if err != nil {
				t.Fatal(err)
			}
			for run := 1; run <= 2; run++ {
				runtime.GOMAXPROCS(run)
				got, err := probs[run].step(ls[run], rs[run], updateL)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("GOMAXPROCS %d, sweep %d (updateL=%v): drop %v, composed %v", run, sweep, updateL, got, want)
				}
			}
		}
		for run := 1; run <= 2; run++ {
			sameBits(t, run, sweep, "L", ls[run], ls[0])
			sameBits(t, run, sweep, "R", rs[run], rs[0])
		}
	}
	for _, m := range []*mat.Dense{l, r} {
		if v := m.MaxAbs(); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("factors diverged; the fixture no longer exercises finite sweeps")
		}
	}
}

func sameBits(t *testing.T, procs, sweep int, name string, got, want *mat.Dense) {
	t.Helper()
	g, w := got.RawData(), want.RawData()
	for i := range w {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("GOMAXPROCS %d, sweep %d: %s[%d] = %v, composed %v", procs, sweep, name, i, g[i], w[i])
		}
	}
}

// TestPreconditioner checks the ScaledASD direction against direct
// products: the fused Gram's lower triangle equals mat's FᵀF bit for bit,
// D·(FᵀF + λ₁I) reproduces the gradient, and a singular Gram (a zero
// column of the fixed factor at λ₁ = 0) leaves the gradient as the step's
// direction, which still lowers the objective.
func TestPreconditioner(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, sh := range []struct{ n, t, rank int }{{16, 48, 4}, {5, 7, 5}, {158, 240, 7}} {
		for _, lambda1 := range []float64{DefaultOptions().Lambda1, 0, 50} {
			t.Run(fmt.Sprintf("%dx%d/rank%d/lambda%v", sh.n, sh.t, sh.rank, lambda1), func(t *testing.T) {
				s, b, avgV := refFixture(sh.n, sh.t, VariantVelocityTemporal, 7)
				opt := DefaultOptions()
				opt.Rank = sh.rank
				opt.Lambda1 = lambda1
				p, err := newProblem(s, b, avgV, opt, sh.n, sh.t)
				if err != nil {
					t.Fatal(err)
				}
				l, r := randomFactors(s, sh.rank)
				e1, g, err := p.residuals(l, r)
				if err != nil {
					t.Fatal(err)
				}
				gl, err := p.gradL(l, r, e1, g)
				if err != nil {
					t.Fatal(err)
				}
				gr, err := p.gradR(l, r, e1, g)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range []struct {
					name        string
					grad, fixed *mat.Dense
				}{{"L", gl, r}, {"R", gr, l}} {
					want := c.grad.Clone()
					dir := c.grad.Clone()
					if !p.precondition(dir, c.fixed) {
						t.Fatalf("%s: regular Gram took the fallback", c.name)
					}
					ft := c.fixed.T()
					gram, err := ft.MulT(ft)
					if err != nil {
						t.Fatal(err)
					}
					for k := 0; k < sh.rank; k++ {
						for l := 0; l <= k; l++ {
							if got, want := p.ws.gram[k*sh.rank+l], gram.At(k, l); math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%s: gram(%d,%d) = %v, mat FᵀF %v", c.name, k, l, got, want)
							}
						}
					}
					for k := 0; k < sh.rank; k++ {
						gram.Add(k, k, lambda1)
					}
					back, err := dir.MulT(gram) // the Gram is symmetric
					if err != nil {
						t.Fatal(err)
					}
					if err := back.AxpyInPlace(-1, want); err != nil {
						t.Fatal(err)
					}
					if rel := back.FrobeniusNorm() / want.FrobeniusNorm(); rel > 1e-9 {
						t.Fatalf("%s: ‖D·(FᵀF+λ₁I) − ∇‖/‖∇‖ = %v", c.name, rel)
					}
				}
			})
		}
	}

	t.Run("singular", func(t *testing.T) {
		s, b, avgV := refFixture(16, 48, VariantVelocityTemporal, 9)
		opt := DefaultOptions()
		opt.Rank = 4
		opt.Lambda1 = 0
		p, err := newProblem(s, b, avgV, opt, 16, 48)
		if err != nil {
			t.Fatal(err)
		}
		l, r := randomFactors(s, opt.Rank)
		for j := 0; j < r.Rows(); j++ {
			r.Set(j, 2, 0)
		}
		e1, g, err := p.residuals(l, r)
		if err != nil {
			t.Fatal(err)
		}
		grad, err := p.gradL(l, r, e1, g)
		if err != nil {
			t.Fatal(err)
		}
		dir := grad.Clone()
		if p.precondition(dir, r) {
			t.Fatal("Gram of a factor with a zero column factored at λ₁ = 0")
		}
		sameBits(t, 1, 0, "fallback direction", dir, grad)
		before := p.objective(l, r)
		drop, err := p.step(l, r, true)
		if err != nil {
			t.Fatal(err)
		}
		after := p.objective(l, r)
		if !(drop > 0) || !(after < before) {
			t.Fatalf("fallback step: drop %v, objective %v -> %v", drop, before, after)
		}
	})
}
