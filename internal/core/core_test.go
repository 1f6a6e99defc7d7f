package core

import (
	"strings"
	"testing"

	"itscs/internal/corrupt"
	"itscs/internal/csrecon"
	"itscs/internal/mat"
	"itscs/internal/metrics"
	"itscs/internal/trace"
)

// fixture generates a small fleet and corrupts it.
func fixture(t testing.TB, n, slots int, alpha, beta float64) (*trace.Fleet, *corrupt.Result) {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.Participants = n
	cfg.Slots = slots
	fleet, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := corrupt.DefaultPlan()
	plan.MissingRatio = alpha
	plan.FaultyRatio = beta
	res, err := corrupt.Apply(plan, fleet.X, fleet.Y)
	if err != nil {
		t.Fatal(err)
	}
	return fleet, res
}

func inputFrom(fleet *trace.Fleet, res *corrupt.Result) Input {
	return Input{
		SX:        res.SX,
		SY:        res.SY,
		Existence: res.Existence,
		VX:        fleet.VX,
		VY:        fleet.VY,
	}
}

func TestRunEndToEndModerateCorruption(t *testing.T) {
	fleet, res := fixture(t, 40, 120, 0.2, 0.2)
	cfg := DefaultConfig()
	out, err := Run(cfg, inputFrom(fleet, res))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converged {
		t.Fatalf("did not converge in %d iterations", out.Iterations)
	}
	conf, err := metrics.Compare(out.Detection, res.Faulty, res.Existence)
	if err != nil {
		t.Fatal(err)
	}
	if conf.Precision() < 0.9 {
		t.Fatalf("precision = %.4f, want >= 0.9 (%v)", conf.Precision(), conf)
	}
	if conf.Recall() < 0.9 {
		t.Fatalf("recall = %.4f, want >= 0.9 (%v)", conf.Recall(), conf)
	}
	mae, err := metrics.MAE(fleet.X, fleet.Y, out.XHat, out.YHat, res.Existence, out.Detection)
	if err != nil {
		t.Fatal(err)
	}
	if mae > 500 {
		t.Fatalf("reconstruction MAE = %.1f m, want < 500 m", mae)
	}
}

func TestRunConvergesWithinPaperBound(t *testing.T) {
	fleet, res := fixture(t, 30, 100, 0.3, 0.3)
	cfg := DefaultConfig()
	out, err := Run(cfg, inputFrom(fleet, res))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converged {
		t.Fatal("did not converge")
	}
	if out.Iterations > 6 {
		t.Fatalf("converged in %d iterations; paper observes <= 4", out.Iterations)
	}
}

func TestRunKeepsHistory(t *testing.T) {
	fleet, res := fixture(t, 20, 80, 0.2, 0.1)
	cfg := DefaultConfig()
	cfg.KeepHistory = true
	out, err := Run(cfg, inputFrom(fleet, res))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.History) != out.Iterations {
		t.Fatalf("history has %d entries for %d iterations", len(out.History), out.Iterations)
	}
	last := out.History[len(out.History)-1]
	if last.ChangedFlags != 0 {
		t.Fatal("last snapshot should record convergence (0 changed flags)")
	}
	if !last.Detection.Equal(out.Detection, 0) {
		t.Fatal("last snapshot detection must match final output")
	}
	for _, snap := range out.History {
		if snap.XHat == nil || snap.YHat == nil {
			t.Fatal("snapshots must carry reconstructions")
		}
	}
}

func TestRunNoCorruptionIsClean(t *testing.T) {
	fleet, res := fixture(t, 20, 80, 0, 0)
	out, err := Run(DefaultConfig(), inputFrom(fleet, res))
	if err != nil {
		t.Fatal(err)
	}
	conf, err := metrics.Compare(out.Detection, res.Faulty, res.Existence)
	if err != nil {
		t.Fatal(err)
	}
	if conf.FalsePositiveRate() > 0.02 {
		t.Fatalf("clean data false positive rate = %.4f", conf.FalsePositiveRate())
	}
}

func TestRunDeterministic(t *testing.T) {
	fleet, res := fixture(t, 15, 60, 0.2, 0.2)
	a, err := Run(DefaultConfig(), inputFrom(fleet, res))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(DefaultConfig(), inputFrom(fleet, res))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Detection.Equal(b.Detection, 0) || !a.XHat.Equal(b.XHat, 0) {
		t.Fatal("Run must be deterministic")
	}
}

func TestRunDoesNotMutateInput(t *testing.T) {
	fleet, res := fixture(t, 15, 60, 0.2, 0.2)
	in := inputFrom(fleet, res)
	sx, sy := in.SX.Clone(), in.SY.Clone()
	e, vx, vy := in.Existence.Clone(), in.VX.Clone(), in.VY.Clone()
	if _, err := Run(DefaultConfig(), in); err != nil {
		t.Fatal(err)
	}
	if !in.SX.Equal(sx, 0) || !in.SY.Equal(sy, 0) || !in.Existence.Equal(e, 0) ||
		!in.VX.Equal(vx, 0) || !in.VY.Equal(vy, 0) {
		t.Fatal("Run must not mutate its input")
	}
}

func TestRunVariants(t *testing.T) {
	fleet, res := fixture(t, 25, 80, 0.2, 0.2)
	for _, variant := range []csrecon.Variant{
		csrecon.VariantBasic, csrecon.VariantTemporal, csrecon.VariantVelocityTemporal,
	} {
		cfg := DefaultConfig()
		cfg.Reconstruct.Variant = variant
		out, err := Run(cfg, inputFrom(fleet, res))
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		conf, err := metrics.Compare(out.Detection, res.Faulty, res.Existence)
		if err != nil {
			t.Fatal(err)
		}
		// The paper reports near-indistinguishable detection across the
		// I(TS,CS)-like variants (faults are km-scale, reconstruction
		// differences are sub-km).
		if conf.Recall() < 0.85 || conf.Precision() < 0.85 {
			t.Fatalf("%v: P=%.3f R=%.3f below floor", variant, conf.Precision(), conf.Recall())
		}
	}
}

func TestConfigValidation(t *testing.T) {
	base := DefaultConfig()
	mutations := []func(*Config){
		func(c *Config) { c.Detect.Window = 2 },
		func(c *Config) { c.Reconstruct.Rank = -1 },
		func(c *Config) { c.CheckLowMeters = 0 },
		func(c *Config) { c.CheckHighMeters = c.CheckLowMeters },
		func(c *Config) { c.MaxIterations = 0 },
	}
	for i, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("mutation %d should fail validation", i)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("default config must validate: %v", err)
	}
}

func TestInputValidation(t *testing.T) {
	good := Input{
		SX: mat.New(2, 3), SY: mat.New(2, 3), Existence: mat.Ones(2, 3),
		VX: mat.New(2, 3), VY: mat.New(2, 3),
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Input{
		{},
		{SX: mat.New(2, 3), SY: mat.New(2, 3), Existence: mat.Ones(2, 3), VX: mat.New(2, 3)},
		{SX: mat.New(0, 0), SY: mat.New(0, 0), Existence: mat.New(0, 0), VX: mat.New(0, 0), VY: mat.New(0, 0)},
		{SX: mat.New(2, 3), SY: mat.New(3, 2), Existence: mat.Ones(2, 3), VX: mat.New(2, 3), VY: mat.New(2, 3)},
	}
	for i, in := range cases {
		if err := in.Validate(); err == nil {
			t.Fatalf("case %d should fail validation", i)
		}
		if _, err := Run(DefaultConfig(), in); err == nil {
			t.Fatalf("case %d should fail Run", i)
		}
	}
}

func TestGBIM(t *testing.T) {
	e, _ := mat.NewFromRows([][]float64{{1, 1, 0, 0}})
	d, _ := mat.NewFromRows([][]float64{{0, 1, 0, 1}})
	b := gbim(e, d)
	want := []float64{1, 0, 0, 0}
	for j, w := range want {
		if b.At(0, j) != w {
			t.Fatalf("B[%d] = %v, want %v", j, b.At(0, j), w)
		}
	}
}

func TestCheckFlipsBothWays(t *testing.T) {
	// thresholds: clear below 300 m, raise above 600 m
	s, _ := mat.NewFromRows([][]float64{{100, 100, 100, 0}})
	sHat, _ := mat.NewFromRows([][]float64{{150, 2000, 100, 100}})
	d, _ := mat.NewFromRows([][]float64{{1, 0, 1, 1}})
	e, _ := mat.NewFromRows([][]float64{{1, 1, 1, 0}})
	out := check(s, sHat, d, e, 300, 600)
	if out.At(0, 0) != 0 {
		t.Fatal("close match must clear the flag")
	}
	if out.At(0, 1) != 1 {
		t.Fatal("large deviation must raise the flag")
	}
	if out.At(0, 2) != 0 {
		t.Fatal("exact match must clear the flag")
	}
	if out.At(0, 3) != 1 {
		t.Fatal("missing cell must be left alone")
	}
	// In-between deviations change nothing.
	s2, _ := mat.NewFromRows([][]float64{{100, 100}})
	h2, _ := mat.NewFromRows([][]float64{{600, 600}})
	d2, _ := mat.NewFromRows([][]float64{{1, 0}})
	e2, _ := mat.NewFromRows([][]float64{{1, 1}})
	out2 := check(s2, h2, d2, e2, 300, 600)
	if out2.At(0, 0) != 1 || out2.At(0, 1) != 0 {
		t.Fatal("deviation between thresholds must leave flags unchanged")
	}
}

func TestDiffAndFlagCount(t *testing.T) {
	a, _ := mat.NewFromRows([][]float64{{1, 0, 1}})
	b, _ := mat.NewFromRows([][]float64{{0, 0, 1}})
	if diffCount(a, b) != 1 {
		t.Fatalf("diffCount = %d", diffCount(a, b))
	}
	e, _ := mat.NewFromRows([][]float64{{1, 1, 0}})
	if flagCount(a, e) != 1 {
		t.Fatalf("flagCount = %d", flagCount(a, e))
	}
}

func TestMaskDetection(t *testing.T) {
	d, _ := mat.NewFromRows([][]float64{{1, 1}})
	e, _ := mat.NewFromRows([][]float64{{1, 0}})
	m := maskDetection(d, e)
	if m.At(0, 0) != 1 || m.At(0, 1) != 0 {
		t.Fatalf("mask = %v", m)
	}
}

// TestInputValidateNamesFirstBadShape pins which matrix a shape error
// names when two are wrong: the checks run in a fixed order, E before VY.
func TestInputValidateNamesFirstBadShape(t *testing.T) {
	ok, bad := mat.New(2, 2), mat.New(2, 3)
	in := Input{SX: ok, SY: ok, Existence: bad, VX: ok, VY: bad}
	for i := 0; i < 50; i++ {
		if err := in.Validate(); err == nil || !strings.HasPrefix(err.Error(), "core: E ") {
			t.Fatalf("call %d: err = %v, want it to name E", i, err)
		}
	}
}
