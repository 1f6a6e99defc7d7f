// Package experiment reproduces every figure of the paper's evaluation
// (§IV): workload generation, corruption sweeps, all four compared methods,
// and the per-figure result tables. Each runner is deterministic in its
// seed and scale so results can be regenerated exactly.
package experiment

import (
	"fmt"
	"time"

	"itscs/internal/core"
	"itscs/internal/corrupt"
	"itscs/internal/csrecon"
	"itscs/internal/mat"
	"itscs/internal/metrics"
	"itscs/internal/motion"
	"itscs/internal/trace"
	"itscs/internal/tsdetect"
)

// Scale sizes the evaluation workload.
type Scale struct {
	Participants int
	Slots        int
}

// PaperScale is the SUVnet subset size used throughout the paper's §IV.
var PaperScale = Scale{Participants: 158, Slots: 240}

// QuickScale is a reduced size for CI and the Go benchmark harness; the
// qualitative shapes (who wins, where the crossovers fall) are preserved.
var QuickScale = Scale{Participants: 60, Slots: 120}

// Config parameterizes a run.
type Config struct {
	Scale Scale
	// Seed drives fleet generation and corruption draws.
	Seed int64
	// Framework is the base framework configuration; per-method runners
	// override only the reconstruction variant.
	Framework core.Config
}

// DefaultConfig returns the evaluation defaults at the given scale.
func DefaultConfig(scale Scale) Config {
	return Config{Scale: scale, Seed: 1, Framework: core.DefaultConfig()}
}

// Method identifies one of the compared approaches.
type Method string

const (
	// MethodTMM is the fixed-threshold two-sided median baseline.
	MethodTMM Method = "TMM"
	// MethodITSCS is the full framework.
	MethodITSCS Method = "I(TS,CS)"
	// MethodITSCSNoV drops velocity from the reconstruction.
	MethodITSCSNoV Method = "I(TS,CS) w/o V"
	// MethodITSCSNoVT drops both stability terms from the reconstruction.
	MethodITSCSNoVT Method = "I(TS,CS) w/o VT"
	// MethodPlainCS is reconstruction-only modified compressive sensing
	// (no detection loop), the Fig. 6 baseline.
	MethodPlainCS Method = "CS"
)

// variantFor maps framework methods to reconstruction variants.
func variantFor(m Method) (csrecon.Variant, error) {
	switch m {
	case MethodITSCS:
		return csrecon.VariantVelocityTemporal, nil
	case MethodITSCSNoV:
		return csrecon.VariantTemporal, nil
	case MethodITSCSNoVT:
		return csrecon.VariantBasic, nil
	default:
		return 0, fmt.Errorf("experiment: method %q has no framework variant", m)
	}
}

// workload bundles one generated-and-corrupted dataset.
type workload struct {
	fleet *trace.Fleet
	cor   *corrupt.Result
	// vx, vy are the velocities handed to the framework (possibly
	// corrupted for the Fig. 7 study).
	vx, vy *mat.Dense
}

// newWorkload generates a fleet and corrupts it. gamma is the velocity
// fault ratio (0 outside the Fig. 7 study).
func newWorkload(cfg Config, alpha, beta, gamma float64) (*workload, error) {
	tc := trace.DefaultConfig()
	tc.Participants = cfg.Scale.Participants
	tc.Slots = cfg.Scale.Slots
	tc.Seed = cfg.Seed
	fleet, err := trace.Generate(tc)
	if err != nil {
		return nil, fmt.Errorf("experiment: generate fleet: %w", err)
	}
	plan := corrupt.DefaultPlan()
	plan.MissingRatio = alpha
	plan.FaultyRatio = beta
	plan.Seed = cfg.Seed + 1000
	cor, err := corrupt.Apply(plan, fleet.X, fleet.Y)
	if err != nil {
		return nil, fmt.Errorf("experiment: corrupt fleet: %w", err)
	}
	w := &workload{fleet: fleet, cor: cor, vx: fleet.VX, vy: fleet.VY}
	if gamma > 0 {
		w.vx, w.vy, err = corrupt.CorruptVelocity(fleet.VX, fleet.VY, gamma, cfg.Seed+2000)
		if err != nil {
			return nil, fmt.Errorf("experiment: corrupt velocity: %w", err)
		}
	}
	return w, nil
}

// input assembles the framework input for a workload.
func (w *workload) input() core.Input {
	return core.Input{
		SX:        w.cor.SX,
		SY:        w.cor.SY,
		Existence: w.cor.Existence,
		VX:        w.vx,
		VY:        w.vy,
	}
}

// runFramework executes one framework variant over the workload.
func runFramework(cfg Config, w *workload, m Method, keepHistory bool) (*core.Output, error) {
	variant, err := variantFor(m)
	if err != nil {
		return nil, err
	}
	fc := cfg.Framework
	fc.Reconstruct.Variant = variant
	fc.KeepHistory = keepHistory
	out, err := core.Run(fc, w.input())
	if err != nil {
		return nil, fmt.Errorf("experiment: %s: %w", m, err)
	}
	return out, nil
}

// runTMM executes the TMM baseline detection over the workload.
func runTMM(cfg Config, w *workload) (*mat.Dense, error) {
	opt := tsdetect.DefaultTMMOptions()
	opt.Window = cfg.Framework.Detect.Window
	dx, err := tsdetect.TMM(w.cor.SX, w.cor.Existence, opt)
	if err != nil {
		return nil, fmt.Errorf("experiment: TMM X: %w", err)
	}
	dy, err := tsdetect.TMM(w.cor.SY, w.cor.Existence, opt)
	if err != nil {
		return nil, fmt.Errorf("experiment: TMM Y: %w", err)
	}
	d, err := tsdetect.Union(dx, dy)
	if err != nil {
		return nil, fmt.Errorf("experiment: TMM union: %w", err)
	}
	return d, nil
}

// runPlainCS reconstructs without any detection: B = E (every observed
// cell trusted, faults included), the paper's Fig. 6 "CS" baseline.
func runPlainCS(cfg Config, w *workload) (xHat, yHat *mat.Dense, err error) {
	opt := cfg.Framework.Reconstruct
	opt.Variant = csrecon.VariantVelocityTemporal
	x, err := csrecon.Reconstruct(w.cor.SX, w.cor.Existence, motion.AverageVelocity(w.vx), nil, opt)
	if err != nil {
		return nil, nil, fmt.Errorf("experiment: plain CS X: %w", err)
	}
	y, err := csrecon.Reconstruct(w.cor.SY, w.cor.Existence, motion.AverageVelocity(w.vy), nil, opt)
	if err != nil {
		return nil, nil, fmt.Errorf("experiment: plain CS Y: %w", err)
	}
	return x.SHat, y.SHat, nil
}

// mae evaluates Eq. (29) for a reconstruction and detection.
func (w *workload) mae(xHat, yHat, detection *mat.Dense) (float64, error) {
	return metrics.MAE(w.fleet.X, w.fleet.Y, xHat, yHat, w.cor.Existence, detection)
}

// DetectionPoint is one (α, β, method) cell of the Fig. 5 family.
type DetectionPoint struct {
	Alpha, Beta float64
	Method      Method
	Precision   float64
	Recall      float64
	Iterations  int
	Elapsed     time.Duration
}

// Fig5 reproduces the detection-performance study (Fig. 5(a)–(f)):
// precision and recall of TMM and the three framework variants across the
// (α, β) grid.
func Fig5(cfg Config, alphas, betas []float64) ([]DetectionPoint, error) {
	var out []DetectionPoint
	for _, alpha := range alphas {
		for _, beta := range betas {
			w, err := newWorkload(cfg, alpha, beta, 0)
			if err != nil {
				return nil, err
			}
			// TMM baseline.
			start := time.Now()
			d, err := runTMM(cfg, w)
			if err != nil {
				return nil, err
			}
			conf, err := metrics.Compare(d, w.cor.Faulty, w.cor.Existence)
			if err != nil {
				return nil, err
			}
			out = append(out, DetectionPoint{
				Alpha: alpha, Beta: beta, Method: MethodTMM,
				Precision: conf.Precision(), Recall: conf.Recall(),
				Elapsed: time.Since(start),
			})
			// Framework variants.
			for _, m := range []Method{MethodITSCSNoVT, MethodITSCSNoV, MethodITSCS} {
				start := time.Now()
				res, err := runFramework(cfg, w, m, false)
				if err != nil {
					return nil, err
				}
				conf, err := metrics.Compare(res.Detection, w.cor.Faulty, w.cor.Existence)
				if err != nil {
					return nil, err
				}
				out = append(out, DetectionPoint{
					Alpha: alpha, Beta: beta, Method: m,
					Precision: conf.Precision(), Recall: conf.Recall(),
					Iterations: res.Iterations, Elapsed: time.Since(start),
				})
			}
		}
	}
	return out, nil
}

// ReconstructionPoint is one (α, β, method) cell of the Fig. 6 family.
type ReconstructionPoint struct {
	Alpha, Beta float64
	Method      Method
	MAE         float64
	Elapsed     time.Duration
}

// Fig6 reproduces the reconstruction-error study (Fig. 6(a)–(c)): the MAE
// of plain modified CS and the three framework variants across the grid.
func Fig6(cfg Config, alphas, betas []float64) ([]ReconstructionPoint, error) {
	var out []ReconstructionPoint
	for _, alpha := range alphas {
		for _, beta := range betas {
			w, err := newWorkload(cfg, alpha, beta, 0)
			if err != nil {
				return nil, err
			}
			// Plain CS: no detection, evaluate over missing cells only
			// (its detection matrix is empty).
			start := time.Now()
			xHat, yHat, err := runPlainCS(cfg, w)
			if err != nil {
				return nil, err
			}
			empty := mat.New(cfg.Scale.Participants, cfg.Scale.Slots)
			maeCS, err := w.mae(xHat, yHat, empty)
			if err != nil {
				return nil, err
			}
			out = append(out, ReconstructionPoint{
				Alpha: alpha, Beta: beta, Method: MethodPlainCS,
				MAE: maeCS, Elapsed: time.Since(start),
			})
			for _, m := range []Method{MethodITSCSNoVT, MethodITSCSNoV, MethodITSCS} {
				start := time.Now()
				res, err := runFramework(cfg, w, m, false)
				if err != nil {
					return nil, err
				}
				v, err := w.mae(res.XHat, res.YHat, res.Detection)
				if err != nil {
					return nil, err
				}
				out = append(out, ReconstructionPoint{
					Alpha: alpha, Beta: beta, Method: m,
					MAE: v, Elapsed: time.Since(start),
				})
			}
		}
	}
	return out, nil
}

// VelocityFaultPoint is one cell of the Fig. 7 robustness study.
type VelocityFaultPoint struct {
	Alpha, Beta, Gamma float64
	Method             Method
	MAE                float64
}

// Fig7 reproduces the faulty-velocity study (Fig. 7(a)–(b)): the MAE of the
// full framework under velocity corruption γ, against the no-velocity
// variant as the reference.
func Fig7(cfg Config, alphas, betas, gammas []float64) ([]VelocityFaultPoint, error) {
	var out []VelocityFaultPoint
	for _, alpha := range alphas {
		for _, beta := range betas {
			// Reference: the variant that ignores velocity entirely.
			w0, err := newWorkload(cfg, alpha, beta, 0)
			if err != nil {
				return nil, err
			}
			res, err := runFramework(cfg, w0, MethodITSCSNoV, false)
			if err != nil {
				return nil, err
			}
			v, err := w0.mae(res.XHat, res.YHat, res.Detection)
			if err != nil {
				return nil, err
			}
			out = append(out, VelocityFaultPoint{
				Alpha: alpha, Beta: beta, Gamma: 0,
				Method: MethodITSCSNoV, MAE: v,
			})
			for _, gamma := range gammas {
				w, err := newWorkload(cfg, alpha, beta, gamma)
				if err != nil {
					return nil, err
				}
				res, err := runFramework(cfg, w, MethodITSCS, false)
				if err != nil {
					return nil, err
				}
				v, err := w.mae(res.XHat, res.YHat, res.Detection)
				if err != nil {
					return nil, err
				}
				out = append(out, VelocityFaultPoint{
					Alpha: alpha, Beta: beta, Gamma: gamma,
					Method: MethodITSCS, MAE: v,
				})
			}
		}
	}
	return out, nil
}

// ConvergencePoint is one iteration of the Fig. 8 convergence study.
type ConvergencePoint struct {
	Alpha, Beta float64
	Iteration   int
	Precision   float64
	Recall      float64
	MAE         float64
	Changed     int
}

// Fig8 reproduces the convergence study (Fig. 8(a)–(b)): per-iteration
// precision and reconstruction error of the full framework.
func Fig8(cfg Config, points []struct{ Alpha, Beta float64 }) ([]ConvergencePoint, error) {
	var out []ConvergencePoint
	for _, p := range points {
		w, err := newWorkload(cfg, p.Alpha, p.Beta, 0)
		if err != nil {
			return nil, err
		}
		res, err := runFramework(cfg, w, MethodITSCS, true)
		if err != nil {
			return nil, err
		}
		for k, snap := range res.History {
			conf, err := metrics.Compare(snap.Detection, w.cor.Faulty, w.cor.Existence)
			if err != nil {
				return nil, err
			}
			v, err := w.mae(snap.XHat, snap.YHat, snap.Detection)
			if err != nil {
				return nil, err
			}
			out = append(out, ConvergencePoint{
				Alpha: p.Alpha, Beta: p.Beta, Iteration: k + 1,
				Precision: conf.Precision(), Recall: conf.Recall(),
				MAE: v, Changed: snap.ChangedFlags,
			})
		}
	}
	return out, nil
}
