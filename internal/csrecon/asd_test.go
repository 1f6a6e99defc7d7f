package csrecon

import (
	"testing"

	"itscs/internal/mat"
	"itscs/internal/motion"
)

// TestSteadyStateSweepsAllocationFree asserts the workspace rewrite's core
// claim: once the scratch buffers exist, a full L+R ASD sweep performs
// zero heap allocations (with the kernels pinned to the sequential path —
// the parallel fork/join is the one remaining allocation source).
func TestSteadyStateSweepsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer mat.SetParallelism(mat.SetParallelism(1))
	x, v := lowRankFixture(20, 40, 41)
	b := dropCells(20, 40, 100, 42)
	s, err := x.Hadamard(b)
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions(VariantVelocityTemporal)
	prob, err := newProblem(s, b, motion.AverageVelocity(v), opt, 20, 40)
	if err != nil {
		t.Fatal(err)
	}
	l, r, err := initFactors(s, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up once so the workspace is allocated.
	if _, err := prob.step(l, r, true); err != nil {
		t.Fatal(err)
	}
	if _, err := prob.step(l, r, false); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := prob.step(l, r, true); err != nil {
			t.Fatal(err)
		}
		if _, err := prob.step(l, r, false); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state ASD sweep allocates %v objects, want 0", allocs)
	}
}

// TestFixedStepObjectiveIncreaseDoesNotTerminate is the regression test
// for the premature-termination bug: with a fixed step size large enough
// to overshoot, a sweep *increases* the objective; the old code read the
// resulting negative relative improvement as convergence and stopped after
// the first bad sweep.
func TestFixedStepObjectiveIncreaseDoesNotTerminate(t *testing.T) {
	x, _ := lowRankFixture(12, 24, 31)
	b := dropCells(12, 24, 60, 32)
	s, err := x.Hadamard(b)
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions(VariantBasic)
	opt.Rank = 2

	// Find the exact first-step size α* along the scaled direction the run
	// takes, then overshoot it 10×: the drop 2α·num − α²·den is firmly
	// negative there, so sweep 1 must increase the objective.
	prob, err := newProblem(s, b, nil, opt, 12, 24)
	if err != nil {
		t.Fatal(err)
	}
	l, r, err := initFactors(s, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	e1, g, err := prob.residuals(l, r)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := prob.gradL(l, r, e1, g)
	if err != nil {
		t.Fatal(err)
	}
	prob.precondition(dir, r)
	num, den, err := prob.lineStats(l, r, dir, e1, g, true)
	if err != nil {
		t.Fatal(err)
	}
	if num <= 0 || den <= 0 {
		t.Fatalf("degenerate line search (num=%v den=%v); fixture unusable", num, den)
	}

	opt.FixedStepSize = 10 * num / den
	opt.MaxIters = 6
	res, err := ReconstructDetailed(s, b, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.ObjectiveTrace[1] <= res.ObjectiveTrace[0] {
		t.Fatalf("fixture did not overshoot: sweep 1 went %v -> %v",
			res.ObjectiveTrace[0], res.ObjectiveTrace[1])
	}
	if res.Iterations <= 1 {
		t.Fatalf("run terminated after the objective-increasing sweep (iterations=%d); negative improvement must not read as convergence", res.Iterations)
	}
}

// TestZeroObjectiveTerminatesImmediately is the regression test for the
// `obj > 0` guard: a problem that starts at objective zero is converged,
// and must not burn MaxIters no-op sweeps.
func TestZeroObjectiveTerminatesImmediately(t *testing.T) {
	const n, tt = 6, 9
	opt := testOptions(VariantBasic)
	opt.Rank = 2
	opt.MaxIters = 50
	prob, err := newProblem(mat.New(n, tt), mat.Ones(n, tt), nil, opt, n, tt)
	if err != nil {
		t.Fatal(err)
	}
	l := mat.New(n, 2)
	r := mat.New(tt, 2)
	res, err := prob.run(l, r, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != 0 {
		t.Fatalf("objective = %v, want 0", res.Objective)
	}
	if res.Iterations != 1 {
		t.Fatalf("zero-objective run took %d sweeps, want termination after 1", res.Iterations)
	}
}

// TestObjectiveReconciledAtExit asserts the drift fix: Result.Objective is
// the exact objective at the final factors, not the incrementally tracked
// estimate.
func TestObjectiveReconciledAtExit(t *testing.T) {
	x, v := lowRankFixture(15, 30, 51)
	b := dropCells(15, 30, 90, 52)
	s, err := x.Hadamard(b)
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions(VariantVelocityTemporal)
	opt.MaxIters = 60
	opt.TerminateRatio = 1e-12
	prob, err := newProblem(s, b, motion.AverageVelocity(v), opt, 15, 30)
	if err != nil {
		t.Fatal(err)
	}
	l, r, err := initFactors(s, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prob.run(l, r, opt)
	if err != nil {
		t.Fatal(err)
	}
	// run mutates l and r in place, so the exact objective at the final
	// factors is recomputable directly.
	exact := prob.objective(l, r)
	if res.Objective != exact {
		t.Fatalf("Result.Objective = %v, want exact objective %v", res.Objective, exact)
	}
	if last := res.ObjectiveTrace[len(res.ObjectiveTrace)-1]; last != exact {
		t.Fatalf("trace tail = %v, want exact objective %v", last, exact)
	}
}
