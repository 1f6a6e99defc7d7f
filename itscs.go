package itscs

import (
	"errors"
	"fmt"
	"math"
	"time"

	"itscs/internal/core"
	"itscs/internal/csrecon"
	"itscs/internal/mat"
)

// Variant selects the reconstruction objective used in the CORRECT phase.
type Variant int

const (
	// VariantFull is the complete I(TS,CS) objective with the
	// velocity-improved temporal-stability term (paper Eq. 23).
	VariantFull Variant = iota + 1
	// VariantNoVelocity keeps the temporal-stability term but drops the
	// velocity target ("I(TS,CS) without V").
	VariantNoVelocity
	// VariantPlainCS uses plain regularized matrix completion
	// ("I(TS,CS) without VT").
	VariantPlainCS
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case VariantFull:
		return "I(TS,CS)"
	case VariantNoVelocity:
		return "I(TS,CS) without V"
	case VariantPlainCS:
		return "I(TS,CS) without VT"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

func (v Variant) toInternal() (csrecon.Variant, error) {
	switch v {
	case VariantFull:
		return csrecon.VariantVelocityTemporal, nil
	case VariantNoVelocity:
		return csrecon.VariantTemporal, nil
	case VariantPlainCS:
		return csrecon.VariantBasic, nil
	default:
		return 0, fmt.Errorf("itscs: unknown variant %d", int(v))
	}
}

// Dataset is the input to the framework: one row per participant, one
// column per time slot. A NaN in X (and Y) marks a missing observation;
// both coordinates of a slot are treated as missing when either is NaN,
// matching the paper's model where x and y are lost together.
//
// VX and VY are the participants' reported instantaneous velocity
// components in meters/second. They drive the detector's adaptive
// tolerance and the full variant's reconstruction target. Velocities may
// themselves be noisy or partially faulty — the framework is robust to
// that (paper §IV-D).
type Dataset struct {
	X, Y   [][]float64
	VX, VY [][]float64
}

// Result reports the framework's findings.
type Result struct {
	// Faulty marks the observed cells judged faulty.
	Faulty [][]bool
	// Missing marks the cells that carried no observation (NaN input).
	Missing [][]bool
	// X, Y are the repaired trajectories: reconstruction at missing and
	// faulty cells, the observed values elsewhere.
	X, Y [][]float64
	// ReconstructedX, ReconstructedY are the raw low-rank reconstructions
	// at every cell.
	ReconstructedX, ReconstructedY [][]float64
	// Iterations is the number of DETECT→CORRECT→CHECK rounds executed.
	Iterations int
	// Converged reports whether the flag set stabilized before the
	// iteration cap.
	Converged bool
}

// options collects the tunable knobs; construct with Option functions.
type options struct {
	cfg     core.Config
	variant Variant
}

// Option customizes Run.
type Option func(*options) error

// WithSlotDuration sets the sampling period τ (default 30 s).
func WithSlotDuration(tau time.Duration) Option {
	return func(o *options) error {
		if tau <= 0 {
			return fmt.Errorf("itscs: slot duration must be positive, got %v", tau)
		}
		o.cfg.Detect.Tau = tau
		o.cfg.Reconstruct.Tau = tau
		return nil
	}
}

// WithVariant selects the reconstruction objective (default VariantFull).
func WithVariant(v Variant) Option {
	return func(o *options) error {
		if _, err := v.toInternal(); err != nil {
			return err
		}
		o.variant = v
		return nil
	}
}

// WithDetectionWindow sets the local-median window size (odd, default 13).
func WithDetectionWindow(w int) Option {
	return func(o *options) error {
		o.cfg.Detect.Window = w
		return nil
	}
}

// WithXi sets the detector's tolerance coefficient ξ (default 1.5).
func WithXi(xi float64) Option {
	return func(o *options) error {
		o.cfg.Detect.Xi = xi
		return nil
	}
}

// WithToleranceFloor sets the minimum detection tolerance in meters,
// guarding idle participants against GPS noise (default 60 m).
func WithToleranceFloor(meters float64) Option {
	return func(o *options) error {
		o.cfg.Detect.MinToleranceMeters = meters
		return nil
	}
}

// WithRank fixes the completion rank; 0 (the default) selects it
// automatically from the data's singular-value spectrum.
func WithRank(r int) Option {
	return func(o *options) error {
		o.cfg.Reconstruct.Rank = r
		return nil
	}
}

// WithLambdas sets the reconstruction trade-off weights λ₁ (rank
// surrogate) and λ₂ (temporal/velocity stability).
func WithLambdas(lambda1, lambda2 float64) Option {
	return func(o *options) error {
		o.cfg.Reconstruct.Lambda1 = lambda1
		o.cfg.Reconstruct.Lambda2 = lambda2
		return nil
	}
}

// WithCheckThresholds sets Algorithm 3's clear/raise thresholds in meters
// (defaults 300 and 600).
func WithCheckThresholds(low, high float64) Option {
	return func(o *options) error {
		o.cfg.CheckLowMeters = low
		o.cfg.CheckHighMeters = high
		return nil
	}
}

// WithMaxIterations bounds the outer loop (default 15).
func WithMaxIterations(n int) Option {
	return func(o *options) error {
		o.cfg.MaxIterations = n
		return nil
	}
}

// WithAdaptiveCheck toggles the adaptive raise threshold in the CHECK
// phase (default on): when enabled, the threshold widens to sit above the
// reconstruction's own residual level so datasets with a high low-rank
// truncation floor are not flooded with false positives.
func WithAdaptiveCheck(enabled bool) Option {
	return func(o *options) error {
		o.cfg.DisableAdaptiveCheck = !enabled
		return nil
	}
}

// Run executes the I(TS,CS) framework over the dataset.
func Run(ds Dataset, opts ...Option) (*Result, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	e, ms, err := toMatrices(
		[]rowSet{{"X", ds.X}, {"Y", ds.Y}},
		[]rowSet{{"VX", ds.VX}, {"VY", ds.VY}})
	if err != nil {
		return nil, err
	}
	out, err := core.Run(cfg, core.Input{SX: ms[0], SY: ms[1], Existence: e, VX: ms[2], VY: ms[3]})
	if err != nil {
		return nil, err
	}
	faulty, missing, repaired, recon := assemble(out.Detection, e,
		[][][]float64{ds.X, ds.Y}, []*mat.Dense{out.XHat, out.YHat})
	return &Result{
		Faulty:         faulty,
		Missing:        missing,
		X:              repaired[0],
		Y:              repaired[1],
		ReconstructedX: recon[0],
		ReconstructedY: recon[1],
		Iterations:     out.Iterations,
		Converged:      out.Converged,
	}, nil
}

// newConfig applies opts to the default configuration and maps the
// selected variant onto the internal one.
func newConfig(opts []Option) (core.Config, error) {
	o := options{cfg: core.DefaultConfig(), variant: VariantFull}
	for _, apply := range opts {
		if err := apply(&o); err != nil {
			return core.Config{}, err
		}
	}
	variant, err := o.variant.toInternal()
	if err != nil {
		return core.Config{}, err
	}
	o.cfg.Reconstruct.Variant = variant
	return o.cfg, nil
}

// rowSet is one named participants × slots input.
type rowSet struct {
	name string
	rows [][]float64
}

// toMatrices checks that every row set has the first one's shape, row
// counts first and then slot counts row by row, each in the order given,
// and converts the sets to matrices, one each, in the same order. A NaN
// in any sensory set marks the cell missing: the existence matrix e is 0
// there and every sensory matrix holds 0. A NaN in a rate set reads as 0.
func toMatrices(sensory, rates []rowSet) (e *mat.Dense, ms []*mat.Dense, err error) {
	sets := append(append([]rowSet{}, sensory...), rates...)
	n := len(sets[0].rows)
	if n == 0 {
		return nil, nil, errors.New("itscs: dataset has no participants")
	}
	t := len(sets[0].rows[0])
	if t == 0 {
		return nil, nil, errors.New("itscs: dataset has no time slots")
	}
	for _, s := range sets[1:] {
		if len(s.rows) != n {
			return nil, nil, fmt.Errorf("itscs: %s has %d rows, want %d", s.name, len(s.rows), n)
		}
	}
	for i := 0; i < n; i++ {
		for _, s := range sets {
			if len(s.rows[i]) != t {
				return nil, nil, fmt.Errorf("itscs: %s row %d has %d slots, want %d", s.name, i, len(s.rows[i]), t)
			}
		}
	}
	e = mat.Ones(n, t)
	for _, s := range sensory {
		for i, row := range s.rows {
			for j, v := range row {
				if math.IsNaN(v) {
					e.Set(i, j, 0)
				}
			}
		}
	}
	ms = make([]*mat.Dense, len(sets))
	for k, s := range sets {
		ms[k] = mat.New(n, t)
		for i, row := range s.rows {
			for j, v := range row {
				if math.IsNaN(v) || k < len(sensory) && e.At(i, j) == 0 {
					continue
				}
				ms[k].Set(i, j, v)
			}
		}
	}
	return e, ms, nil
}

// assemble turns the framework's output into the public verdicts and, per
// axis, the repaired rows (the reconstruction at faulty and missing cells,
// the observed value elsewhere) and the raw reconstructed rows.
func assemble(detection, e *mat.Dense, observed [][][]float64, hats []*mat.Dense) (faulty, missing [][]bool, repaired, reconstructed [][][]float64) {
	n, t := e.Dims()
	faulty, missing = make([][]bool, n), make([][]bool, n)
	for i := 0; i < n; i++ {
		faulty[i], missing[i] = make([]bool, t), make([]bool, t)
		for j := 0; j < t; j++ {
			faulty[i][j] = detection.At(i, j) != 0
			missing[i][j] = e.At(i, j) == 0
		}
	}
	for k, hat := range hats {
		fixed, raw := make([][]float64, n), make([][]float64, n)
		for i := 0; i < n; i++ {
			raw[i] = hat.Row(i)
			fixed[i] = make([]float64, t)
			for j := 0; j < t; j++ {
				if faulty[i][j] || missing[i][j] {
					fixed[i][j] = raw[i][j]
				} else {
					fixed[i][j] = observed[k][i][j]
				}
			}
		}
		repaired, reconstructed = append(repaired, fixed), append(reconstructed, raw)
	}
	return faulty, missing, repaired, reconstructed
}
