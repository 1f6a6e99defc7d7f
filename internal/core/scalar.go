package core

import (
	"fmt"

	"itscs/internal/csrecon"
	"itscs/internal/mat"
	"itscs/internal/motion"
)

// ScalarInput is a single-matrix dataset for RunScalar: generic sensory
// data (temperature, pollution, signal strength, …) instead of paired
// coordinates. The paper notes I(TS,CS) "can be easily extended to other
// kinds of sensory data" (§I); this is that extension.
type ScalarInput struct {
	// S is the sensory matrix (participants × slots, zeros at missing cells).
	S *mat.Dense
	// Existence marks observed cells.
	Existence *mat.Dense
	// Rate optionally reports the sensed quantity's instantaneous rate of
	// change (the scalar analogue of velocity), in units per second. When
	// nil, the detector falls back to its tolerance floor and the
	// reconstruction to the pure temporal-stability variant.
	Rate *mat.Dense
}

// Validate reports input shape errors.
func (in ScalarInput) Validate() error {
	if in.S == nil || in.Existence == nil {
		return fmt.Errorf("core: sensory and existence matrices are required")
	}
	n, t := in.S.Dims()
	if n == 0 || t == 0 {
		return fmt.Errorf("core: empty sensory matrix")
	}
	if er, ec := in.Existence.Dims(); er != n || ec != t {
		return fmt.Errorf("core: existence is %dx%d, want %dx%d", er, ec, n, t)
	}
	if in.Rate != nil {
		if rr, rc := in.Rate.Dims(); rr != n || rc != t {
			return fmt.Errorf("core: rate is %dx%d, want %dx%d", rr, rc, n, t)
		}
	}
	return nil
}

// ScalarOutput is the RunScalar result.
type ScalarOutput struct {
	// Detection marks observed cells judged faulty.
	Detection *mat.Dense
	// SHat is the final reconstruction.
	SHat *mat.Dense
	// Iterations counts the outer rounds run.
	Iterations int
	// Converged reports whether the flag set stabilized.
	Converged bool
}

// RunScalar executes the I(TS,CS) loop over a single sensory matrix: the
// same loop as Run, over one axis instead of two.
func RunScalar(cfg Config, in ScalarInput) (*ScalarOutput, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	rate := in.Rate
	if rate == nil {
		rate = mat.New(in.S.Dims())
		// Without rate data the velocity-improved objective degenerates to
		// a zero target, which would penalize all motion as unexplained;
		// the temporal variant is the faithful fallback.
		if cfg.Reconstruct.Variant == csrecon.VariantVelocityTemporal {
			cfg.Reconstruct.Variant = csrecon.VariantTemporal
		}
	}
	s := &axis{name: "S", s: in.S, avgV: motion.AverageVelocity(rate)}
	out, err := loop(cfg, in.Existence, []*axis{s}, false)
	if err != nil {
		return nil, err
	}
	return &ScalarOutput{
		Detection:  out.Detection,
		SHat:       s.res.SHat,
		Iterations: out.Iterations,
		Converged:  out.Converged,
	}, nil
}
