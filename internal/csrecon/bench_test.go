package csrecon

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"itscs/internal/corrupt"
	"itscs/internal/mat"
	"itscs/internal/motion"
	"itscs/internal/trace"
)

// benchFixture builds a corrupted fleet with an oracle trust mask (exactly
// the clean observed cells) so reconstruction quality is isolated from
// detection quality.
type benchFixture struct {
	truthX *mat.Dense
	s      *mat.Dense
	b      *mat.Dense
	avgV   *mat.Dense
}

func newBenchFixture(b testing.TB, alpha, beta float64) *benchFixture {
	b.Helper()
	cfg := trace.DefaultConfig()
	cfg.Participants = 60
	cfg.Slots = 120
	fleet, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	plan := corrupt.DefaultPlan()
	plan.MissingRatio = alpha
	plan.FaultyRatio = beta
	res, err := corrupt.Apply(plan, fleet.X, fleet.Y)
	if err != nil {
		b.Fatal(err)
	}
	n, t := fleet.X.Dims()
	trust := mat.New(n, t)
	for i := 0; i < n; i++ {
		for j := 0; j < t; j++ {
			if res.Existence.At(i, j) == 1 && res.Faulty.At(i, j) == 0 {
				trust.Set(i, j, 1)
			}
		}
	}
	return &benchFixture{
		truthX: fleet.X,
		s:      res.SX,
		b:      trust,
		avgV:   motion.AverageVelocity(fleet.VX),
	}
}

func (f *benchFixture) mae(rec *mat.Dense) float64 {
	n, t := f.truthX.Dims()
	var sum float64
	var cnt int
	for i := 0; i < n; i++ {
		for j := 0; j < t; j++ {
			if f.b.At(i, j) == 0 {
				sum += math.Abs(f.truthX.At(i, j) - rec.At(i, j))
				cnt++
			}
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// BenchmarkReconstructVariants measures time and accuracy of the three
// objective variants on the same workload.
func BenchmarkReconstructVariants(b *testing.B) {
	f := newBenchFixture(b, 0.2, 0.2)
	for _, variant := range []Variant{VariantBasic, VariantTemporal, VariantVelocityTemporal} {
		b.Run(variant.String(), func(b *testing.B) {
			opt := DefaultOptions()
			opt.Variant = variant
			var avgV *mat.Dense
			if variant == VariantVelocityTemporal {
				avgV = f.avgV
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec, err := Reconstruct(f.s, f.b, avgV, nil, opt)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(f.mae(rec.SHat), "MAE_m")
				}
			}
		})
	}
}

// BenchmarkWarmStartVsRandom is the DESIGN.md ablation for §III-C.4: the
// nearest-fill + SVD warm start against random initialization, at the same
// iteration budget.
func BenchmarkWarmStartVsRandom(b *testing.B) {
	f := newBenchFixture(b, 0.3, 0.2)
	for _, random := range []bool{false, true} {
		name := "warm"
		if random {
			name = "random"
		}
		b.Run(name, func(b *testing.B) {
			opt := DefaultOptions()
			opt.Variant = VariantVelocityTemporal
			var start *Factors
			if random {
				l, r := randomFactors(f.s, opt.Rank)
				start = &Factors{L: l, R: r}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Reconstruct(f.s, f.b, f.avgV, start, opt)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(f.mae(res.SHat), "MAE_m")
					b.ReportMetric(float64(res.Iterations), "sweeps")
					b.ReportMetric(res.ObjectiveTrace[0], "initial_objective")
				}
			}
		})
	}
}

// BenchmarkRankSweep is the DESIGN.md rank-bound ablation: reconstruction
// quality and cost as the factorization rank grows past the automatic
// energy-based choice.
func BenchmarkRankSweep(b *testing.B) {
	f := newBenchFixture(b, 0.2, 0.2)
	for _, rank := range []int{4, 8, 16, 32} {
		b.Run(rankName(rank), func(b *testing.B) {
			opt := DefaultOptions()
			opt.Variant = VariantVelocityTemporal
			opt.Rank = rank
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec, err := Reconstruct(f.s, f.b, f.avgV, nil, opt)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(f.mae(rec.SHat), "MAE_m")
				}
			}
		})
	}
}

func rankName(r int) string {
	return fmt.Sprintf("rank%02d", r)
}

// sweepFixture builds a problem and warm factors for the raw ASD sweep
// benchmarks. Random factors sidestep the O(min(n,t)³) SVD warm start,
// which is not what these benchmarks measure.
func sweepFixture(b *testing.B, n, t, rank int) (*problem, *mat.Dense, *mat.Dense) {
	b.Helper()
	x, v := lowRankFixture(n, t, 7)
	mask := dropCells(n, t, n*t/5, 8)
	s, err := x.Hadamard(mask)
	if err != nil {
		b.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Variant = VariantVelocityTemporal
	opt.Rank = rank
	prob, err := newProblem(s, mask, motion.AverageVelocity(v), opt, n, t)
	if err != nil {
		b.Fatal(err)
	}
	l, r := randomFactors(s, rank)
	// Warm up: allocate the workspace so the timed loop is steady state.
	if _, err := prob.step(l, r, true); err != nil {
		b.Fatal(err)
	}
	if _, err := prob.step(l, r, false); err != nil {
		b.Fatal(err)
	}
	return prob, l, r
}

// BenchmarkASDSweep measures one full L+R ASD sweep at the streaming
// window shape (16 participants × 48 slots at rank 4, below the parallel
// cutoff), paper scale (158×240, the SUVnet evaluation dimensions) and
// fleet scale (1000×960) across GOMAXPROCS budgets. ReportAllocs backs the
// zero-allocation claim: at GOMAXPROCS 1 the steady-state sweep must report
// 0 B/op.
func BenchmarkASDSweep(b *testing.B) {
	scales := []struct {
		name       string
		n, t, rank int
		workers    []int
	}{
		{"stream16x48", 16, 48, 4, []int{1}},
		{"paper158x240", 158, 240, 16, []int{1, 2, 4, 8}},
		{"fleet1000x960", 1000, 960, 16, []int{1, 2, 4, 8}},
	}
	for _, sc := range scales {
		if sc.n >= 1000 && testing.Short() {
			continue
		}
		prob, l, r := sweepFixture(b, sc.n, sc.t, sc.rank)
		for _, workers := range sc.workers {
			b.Run(fmt.Sprintf("%s/workers%d", sc.name, workers), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := prob.step(l, r, true); err != nil {
						b.Fatal(err)
					}
					if _, err := prob.step(l, r, false); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkLineSearchVsFixedStep is the DESIGN.md ablation over the ASD
// step-size rule: the exact analytic line search against hand-tuned fixed
// steps along the same scaled direction, at the same sweep budget. The
// Gram scaling normalizes the fitting term but not the λ₂ stability
// term's curvature, so the two fixed steps straddle the largest stable
// one on this fixture. The exact search needs no tuning and converges in
// fewer sweeps.
func BenchmarkLineSearchVsFixedStep(b *testing.B) {
	f := newBenchFixture(b, 0.2, 0.2)
	cases := []struct {
		name string
		step float64
	}{
		{"exact", 0},
		{"fixed0.05", 0.05},
		{"fixed0.1", 0.1},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			opt := DefaultOptions()
			opt.Variant = VariantVelocityTemporal
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := runFixedStep(f.s, f.b, f.avgV, opt, c.step)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(f.mae(res.SHat), "MAE_m")
					b.ReportMetric(float64(res.Iterations), "sweeps")
				}
			}
		})
	}
}
