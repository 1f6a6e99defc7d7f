package csrecon

import (
	"math"
	"testing"
	"time"

	"itscs/internal/mat"
	"itscs/internal/stat"
)

// numericalGradient estimates ∂f/∂M(i,j) by central differences.
func numericalGradient(f func() float64, m *mat.Dense, h float64) *mat.Dense {
	n, t := m.Dims()
	grad := mat.New(n, t)
	for i := 0; i < n; i++ {
		for j := 0; j < t; j++ {
			orig := m.At(i, j)
			m.Set(i, j, orig+h)
			fp := f()
			m.Set(i, j, orig-h)
			fm := f()
			m.Set(i, j, orig)
			grad.Set(i, j, (fp-fm)/(2*h))
		}
	}
	return grad
}

// gradientFixture builds a small randomized problem for a variant.
func gradientFixture(t *testing.T, variant Variant) (*problem, *mat.Dense, *mat.Dense) {
	t.Helper()
	const n, tt, rank = 4, 6, 2
	rng := stat.NewRNG(3)
	s := mat.New(n, tt)
	b := mat.New(n, tt)
	avgV := mat.New(n, tt)
	for i := 0; i < n; i++ {
		for j := 0; j < tt; j++ {
			s.Set(i, j, rng.Uniform(-5, 5))
			if rng.Bool(0.7) {
				b.Set(i, j, 1)
			}
			avgV.Set(i, j, rng.Uniform(-1, 1))
		}
	}
	opt := DefaultOptions()
	opt.Variant = variant
	opt.Lambda1 = 0.05
	opt.Lambda2 = 0.7
	opt.Tau = 2 * time.Second
	var av *mat.Dense
	if variant == VariantVelocityTemporal {
		av = avgV
	}
	prob, err := newProblem(s, b, av, opt, n, tt)
	if err != nil {
		t.Fatal(err)
	}
	l := mat.New(n, rank)
	r := mat.New(tt, rank)
	l.Apply(func(int, int, float64) float64 { return rng.NormFloat64() })
	r.Apply(func(int, int, float64) float64 { return rng.NormFloat64() })
	return prob, l, r
}

// TestGradientsMatchFiniteDifferences verifies the analytic ∇L and ∇R of
// every objective variant against central differences.
func TestGradientsMatchFiniteDifferences(t *testing.T) {
	for _, variant := range []Variant{VariantBasic, VariantTemporal, VariantVelocityTemporal} {
		t.Run(variant.String(), func(t *testing.T) {
			prob, l, r := gradientFixture(t, variant)
			e1, g, err := prob.residuals(l, r)
			if err != nil {
				t.Fatal(err)
			}
			gradL, err := prob.gradL(l, r, e1, g)
			if err != nil {
				t.Fatal(err)
			}
			gradR, err := prob.gradR(l, r, e1, g)
			if err != nil {
				t.Fatal(err)
			}
			obj := func() float64 { return prob.objective(l, r) }
			const h = 1e-5
			numL := numericalGradient(obj, l, h)
			numR := numericalGradient(obj, r, h)
			if !gradL.Equal(numL, 1e-4) {
				t.Fatalf("∇L mismatch:\nanalytic %v\nnumeric  %v", gradL, numL)
			}
			if !gradR.Equal(numR, 1e-4) {
				t.Fatalf("∇R mismatch:\nanalytic %v\nnumeric  %v", gradR, numR)
			}
		})
	}
}

// TestLineSearchIsExactMinimizer verifies the closed-form α* along both
// the plain gradient and the scaled ScaledASD direction: the objective at
// α* must be below nearby step sizes, and the predicted decrease num²/den
// must match the realized decrease.
func TestLineSearchIsExactMinimizer(t *testing.T) {
	for _, variant := range []Variant{VariantBasic, VariantVelocityTemporal} {
		t.Run(variant.String(), func(t *testing.T) {
			for _, dirName := range []string{"gradient", "scaled"} {
				t.Run(dirName, func(t *testing.T) {
					prob, l, r := gradientFixture(t, variant)
					e1, g, err := prob.residuals(l, r)
					if err != nil {
						t.Fatal(err)
					}
					dir, err := prob.gradR(l, r, e1, g)
					if err != nil {
						t.Fatal(err)
					}
					if dirName == "scaled" && !prob.precondition(dir, l) {
						t.Fatal("regular Gram took the fallback")
					}
					num, den, err := prob.lineStats(l, r, dir, e1, g, false)
					if err != nil {
						t.Fatal(err)
					}
					if den <= 0 {
						t.Fatal("degenerate line-search denominator")
					}
					alpha := num / den
					objAt := func(a float64) float64 {
						rTrial := r.Clone()
						if err := rTrial.AxpyInPlace(-a, dir); err != nil {
							t.Fatal(err)
						}
						return prob.objective(l, rTrial)
					}
					f0 := prob.objective(l, r)
					fStar := objAt(alpha)
					// Exactness: perturbed steps cannot beat α*.
					for _, a := range []float64{alpha * 0.5, alpha * 0.9, alpha * 1.1, alpha * 2} {
						if objAt(a) < fStar-1e-9 {
							t.Fatalf("step %v beats the exact minimizer %v", a, alpha)
						}
					}
					// Predicted decrease (α·num) matches the realized one.
					predicted := alpha * num
					realized := f0 - fStar
					if math.Abs(predicted-realized) > 1e-6*math.Max(1, realized) {
						t.Fatalf("predicted decrease %v vs realized %v", predicted, realized)
					}
				})
			}
		})
	}
}
