package itscs

import (
	"itscs/internal/core"
	"itscs/internal/mat"
)

// ScalarResult reports RunScalar's findings.
type ScalarResult struct {
	// Faulty marks the observed cells judged faulty.
	Faulty [][]bool
	// Missing marks the cells that carried no observation (NaN input).
	Missing [][]bool
	// Values holds the repaired series: reconstruction at missing and
	// faulty cells, the observed values elsewhere.
	Values [][]float64
	// Reconstructed holds the raw low-rank reconstruction at every cell.
	Reconstructed [][]float64
	// Iterations counts the DETECT→CORRECT→CHECK rounds executed.
	Iterations int
	// Converged reports whether the flag set stabilized.
	Converged bool
}

// RunScalar executes the I(TS,CS) framework over a single matrix of
// generic sensory data — one row per participant, one column per time
// slot, NaN marking missing observations. This is the paper's §I claim
// that the framework "can be easily extended to other kinds of sensory
// data", made concrete.
//
// rates optionally reports the sensed quantity's instantaneous rate of
// change (units per second), the scalar analogue of velocity; pass nil
// when unavailable and the framework falls back to the pure
// temporal-stability objective.
//
// Thresholds (WithCheckThresholds, WithToleranceFloor) are interpreted in
// the data's own units rather than meters; adjust them to the sensed
// quantity's scale.
func RunScalar(values [][]float64, rates [][]float64, opts ...Option) (*ScalarResult, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	var rateSets []rowSet
	if rates != nil {
		rateSets = []rowSet{{"rates", rates}}
	}
	e, ms, err := toMatrices([]rowSet{{"values", values}}, rateSets)
	if err != nil {
		return nil, err
	}
	in := core.ScalarInput{S: ms[0], Existence: e}
	if rates != nil {
		in.Rate = ms[1]
	}
	out, err := core.RunScalar(cfg, in)
	if err != nil {
		return nil, err
	}
	faulty, missing, repaired, recon := assemble(out.Detection, e,
		[][][]float64{values}, []*mat.Dense{out.SHat})
	return &ScalarResult{
		Faulty:        faulty,
		Missing:       missing,
		Values:        repaired[0],
		Reconstructed: recon[0],
		Iterations:    out.Iterations,
		Converged:     out.Converged,
	}, nil
}
