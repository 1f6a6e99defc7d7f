// Package core implements the I(TS,CS) framework itself: the iterative
// DETECT-and-CORRECT loop of the paper's Fig. 2 that couples the
// time-series outlier detector (internal/tsdetect) with compressive-sensing
// reconstruction (internal/csrecon) and the Check() reconciliation of
// Algorithm 3, iterating until the detection matrix stabilizes.
package core

import (
	"fmt"
	"sync"
	"time"

	"itscs/internal/csrecon"
	"itscs/internal/mat"
	"itscs/internal/motion"
	"itscs/internal/stat"
	"itscs/internal/tsdetect"
)

// Config assembles the framework parameters.
type Config struct {
	// Detect configures the Optimized Local Median Method.
	Detect tsdetect.Options
	// Reconstruct configures CS reconstruction; its Variant selects
	// between I(TS,CS), I(TS,CS)-without-V and I(TS,CS)-without-VT.
	Reconstruct csrecon.Options
	// CheckLowMeters clears a flag when the sensory value sits within this
	// distance of the reconstruction (Algorithm 3's thres_l).
	CheckLowMeters float64
	// CheckHighMeters raises a flag when the sensory value deviates from
	// the reconstruction by more than this (Algorithm 3's thres_u).
	CheckHighMeters float64
	// MaxIterations bounds the outer loop; the paper observes convergence
	// within 4 iterations even at α = β = 40 %.
	MaxIterations int
	// KeepHistory retains per-iteration snapshots for convergence studies.
	KeepHistory bool
	// DisableAdaptiveCheck pins Check() to the fixed thresholds above.
	// By default the raise threshold adapts upward to the reconstruction's
	// own residual level on trusted cells (its 99th percentile, with
	// headroom), so datasets whose low-rank truncation floor exceeds
	// CheckHighMeters do not drown in false positives. The paper notes the
	// faulty-data threshold is "system-specific" (Definition 4); this is
	// the corresponding automation.
	DisableAdaptiveCheck bool
}

// DefaultConfig returns the evaluation configuration. The Check thresholds
// sit between the reconstruction error scale (≈200 m) and the fault bias
// scale (kilometers): flags are cleared below 300 m and raised above 600 m.
func DefaultConfig() Config {
	return Config{
		Detect:          tsdetect.DefaultOptions(),
		Reconstruct:     csrecon.DefaultOptions(),
		CheckLowMeters:  300,
		CheckHighMeters: 600,
		MaxIterations:   15,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Detect.Validate(); err != nil {
		return err
	}
	if err := c.Reconstruct.Validate(); err != nil {
		return err
	}
	switch {
	case c.CheckLowMeters <= 0:
		return fmt.Errorf("core: check low threshold must be positive, got %v", c.CheckLowMeters)
	case c.CheckHighMeters <= c.CheckLowMeters:
		return fmt.Errorf("core: check high threshold %v must exceed low %v", c.CheckHighMeters, c.CheckLowMeters)
	case c.MaxIterations < 1:
		return fmt.Errorf("core: max iterations must be >= 1, got %d", c.MaxIterations)
	}
	return nil
}

// Input is one corrupted dataset to repair.
type Input struct {
	// SX, SY are the sensory matrices (zeros at missing cells).
	SX, SY *mat.Dense
	// Existence marks observed cells (Definition 3).
	Existence *mat.Dense
	// VX, VY are the reported instantaneous velocities. They drive both
	// the adaptive detection tolerance and (for the full variant) the
	// reconstruction's velocity term.
	VX, VY *mat.Dense
}

// Validate reports input shape errors.
func (in Input) Validate() error {
	if in.SX == nil || in.SY == nil || in.Existence == nil || in.VX == nil || in.VY == nil {
		return fmt.Errorf("core: all input matrices are required")
	}
	n, t := in.SX.Dims()
	if n == 0 || t == 0 {
		return fmt.Errorf("core: empty sensory matrices")
	}
	for _, m := range []struct {
		name string
		m    *mat.Dense
	}{{"SY", in.SY}, {"E", in.Existence}, {"VX", in.VX}, {"VY", in.VY}} {
		if mr, mc := m.m.Dims(); mr != n || mc != t {
			return fmt.Errorf("core: %s is %dx%d, want %dx%d", m.name, mr, mc, n, t)
		}
	}
	return nil
}

// Snapshot captures the framework state after one outer iteration.
type Snapshot struct {
	// Detection is the detection matrix after Check().
	Detection *mat.Dense
	// XHat, YHat are the reconstructions of this iteration.
	XHat, YHat *mat.Dense
	// FlagCount is the number of raised detection flags (over observed cells).
	FlagCount int
	// ChangedFlags counts detection entries that differ from the previous
	// iteration (the convergence criterion is ChangedFlags == 0).
	ChangedFlags int
}

// WarmState carries the per-axis CORRECT factorizations of a completed run
// so a later run over overlapping data (e.g. the next sliding window) can
// warm-start its reconstructions instead of cold-starting from SVD.
type WarmState struct {
	X, Y csrecon.Factors
}

// Output is the framework result.
type Output struct {
	// Detection is the final Detection Matrix D restricted to observed
	// cells: 1 marks data judged faulty.
	Detection *mat.Dense
	// XHat, YHat are the final Reconstructed Matrices.
	XHat, YHat *mat.Dense
	// Iterations is the number of outer DETECT→CORRECT→CHECK rounds run.
	Iterations int
	// Converged reports whether D stabilized before MaxIterations.
	Converged bool
	// History holds per-iteration snapshots when Config.KeepHistory is set.
	History []Snapshot
	// Warm holds the final CORRECT factorizations, ready to seed RunWarm on
	// the next overlapping window.
	Warm *WarmState
	// WarmStarted reports whether the first CORRECT round consumed the
	// caller-provided warm state (false when it fell back to cold SVD init,
	// e.g. on a shape or rank change).
	WarmStarted bool
	// DetectDuration, CorrectDuration and CheckDuration are the cumulative
	// wall-clock times spent in each phase across all outer rounds.
	DetectDuration  time.Duration
	CorrectDuration time.Duration
	CheckDuration   time.Duration
	// Sweeps is the total number of ASD sweeps the CORRECT phases ran,
	// summed over both axes and all outer rounds — the dominant cost term,
	// and the number a warm start is supposed to shrink.
	Sweeps int
	// RowFlips counts, per participant row, the detection entries the
	// CHECK phases flipped (cleared or raised) across all outer rounds. A
	// high flip count marks a participant whose data sat in the ambiguous
	// band between the clear and raise thresholds — a reliability signal
	// the reputation layer folds into its trust score.
	RowFlips []int
}

// Run executes I(TS,CS) on the input. Every CORRECT round cold-starts its
// reconstructions; see RunWarm for the streaming entry point.
func Run(cfg Config, in Input) (*Output, error) {
	return run(cfg, in, nil, false)
}

// RunWarm executes I(TS,CS) with warm-started reconstructions: the first
// CORRECT round seeds ASD from warm (when compatible; pass nil to cold-start
// the first round), and every later round within the run seeds from the
// previous round's factors — the detection mask changes only slightly
// between rounds, so the previous factorization is close to the new
// optimum. Output.Warm carries the final factors for the next window.
func RunWarm(cfg Config, in Input, warm *WarmState) (*Output, error) {
	return run(cfg, in, warm, true)
}

func run(cfg Config, in Input, warm *WarmState, carry bool) (*Output, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	x := &axis{name: "X", s: in.SX, avgV: motion.AverageVelocity(in.VX)}
	y := &axis{name: "Y", s: in.SY, avgV: motion.AverageVelocity(in.VY)}
	if warm != nil {
		x.warm, y.warm = &warm.X, &warm.Y
	}
	out, err := loop(cfg, in.Existence, []*axis{x, y}, carry)
	if err != nil {
		return nil, err
	}
	out.XHat, out.YHat = x.res.SHat, y.res.SHat
	out.Warm = &WarmState{X: x.res.Factors, Y: y.res.Factors}
	for k := range out.History {
		out.History[k].XHat, out.History[k].YHat = x.hats[k], y.hats[k]
	}
	return out, nil
}

// axis is one sensory dimension of a dataset: the X or Y coordinate of a
// location, or the single matrix of a scalar field.
type axis struct {
	name string
	// s is the sensory matrix; avgV its average velocity (or rate) per
	// slot, driving the detector's tolerance and the velocity variant.
	s, avgV *mat.Dense
	// warm seeds the next reconstruction; nil cold-starts it.
	warm *csrecon.Factors
	// res is the latest reconstruction.
	res *csrecon.Result
	// hats holds a copy of every round's reconstruction when
	// Config.KeepHistory is set.
	hats []*mat.Dense
}

// loop runs the DETECT→CORRECT→CHECK rounds of Fig. 2 over the axes of one
// dataset until the detection matrix D stops changing. A round detects
// every axis and unions the flags, reconstructs the axes concurrently from
// the trusted cells, then checks every axis against its reconstruction and
// unions again: a cell stays flagged if any axis disagrees. With carry set,
// each round's factors seed the next round's reconstruction of that axis.
// The returned Output lacks the per-axis fields (XHat, YHat, Warm and the
// snapshots' reconstructions); the caller reads them off the axes.
func loop(cfg Config, e *mat.Dense, axes []*axis, carry bool) (*Output, error) {
	n, t := e.Dims()
	out := &Output{RowFlips: make([]int, n)}
	flags := make([]*mat.Dense, len(axes))
	errs := make([]error, len(axes))
	// D starts all ones: the first DETECT clears what tests normal,
	// minimizing false negatives (Algorithm 1).
	d := mat.Ones(n, t)
	var checked *mat.Dense
	var err error
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		// DETECT; after the first round the reconstruction stands in for
		// missing values (Algorithm 1 lines 1-5).
		phaseStart := time.Now()
		what := "detect"
		if iter == 0 {
			what = "first detect"
		}
		for k, ax := range axes {
			var hat *mat.Dense
			if ax.res != nil {
				hat = ax.res.SHat
			}
			if flags[k], err = tsdetect.Detect(ax.s, hat, ax.avgV, d, e, iter == 0, cfg.Detect); err != nil {
				return nil, fmt.Errorf("core: %s %s: %w", what, ax.name, err)
			}
		}
		if d, err = union(flags); err != nil {
			return nil, fmt.Errorf("core: union detections: %w", err)
		}
		out.DetectDuration += time.Since(phaseStart)

		// CORRECT: reconstruct from the trusted cells B = E ∧ ¬D. The axes
		// are independent; run them concurrently.
		phaseStart = time.Now()
		b := gbim(e, d)
		var wg sync.WaitGroup
		for k, ax := range axes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ax.res, errs[k] = reconstructAxis(cfg, ax.s, b, ax.avgV, ax.warm)
			}()
		}
		wg.Wait()
		for k, ax := range axes {
			if errs[k] != nil {
				return nil, fmt.Errorf("core: reconstruct %s: %w", ax.name, errs[k])
			}
			out.Sweeps += ax.res.Iterations
			if iter == 0 && ax.res.WarmStarted {
				out.WarmStarted = true
			}
			if carry {
				ax.warm = &ax.res.Factors
			}
		}
		out.CorrectDuration += time.Since(phaseStart)

		// CHECK: reconcile flags against the reconstruction (Algorithm 3),
		// per axis, then union.
		phaseStart = time.Now()
		for k, ax := range axes {
			high := cfg.CheckHighMeters
			if !cfg.DisableAdaptiveCheck {
				high = adaptiveHigh(ax.s, ax.res.SHat, b, cfg.CheckHighMeters)
			}
			flags[k] = check(ax.s, ax.res.SHat, d, e, cfg.CheckLowMeters, high)
		}
		next, err := union(flags)
		if err != nil {
			return nil, fmt.Errorf("core: union checks: %w", err)
		}
		accumulateRowFlips(out.RowFlips, d, next)

		// The paper's convergence criterion is "D never changes again":
		// compare the post-Check detection against the previous round's.
		changed := n * t
		if checked != nil {
			changed = diffCount(checked, next)
		}
		checked = next
		out.Iterations = iter + 1
		if cfg.KeepHistory {
			out.History = append(out.History, Snapshot{
				Detection:    maskDetection(next, e),
				FlagCount:    flagCount(next, e),
				ChangedFlags: changed,
			})
			for _, ax := range axes {
				ax.hats = append(ax.hats, ax.res.SHat.Clone())
			}
		}
		d = next
		out.CheckDuration += time.Since(phaseStart)
		if changed == 0 {
			out.Converged = true
			break
		}
	}
	out.Detection = maskDetection(checked, e)
	return out, nil
}

// union ORs the per-axis flag matrices; a single axis is its own union.
func union(flags []*mat.Dense) (*mat.Dense, error) {
	u := flags[0]
	for _, f := range flags[1:] {
		var err error
		if u, err = tsdetect.Union(u, f); err != nil {
			return nil, err
		}
	}
	return u, nil
}

// reconstructAxis runs CS reconstruction for one axis, passing the average
// velocity only to the variant that uses it.
func reconstructAxis(cfg Config, s, b, avgV *mat.Dense, warm *csrecon.Factors) (*csrecon.Result, error) {
	if cfg.Reconstruct.Variant != csrecon.VariantVelocityTemporal {
		avgV = nil
	}
	return csrecon.Reconstruct(s, b, avgV, warm, cfg.Reconstruct)
}

// gbim computes the Generalized Binary Index Matrix of Definition 7:
// B(i,j) = 1 iff the cell was observed and is not currently flagged.
func gbim(e, d *mat.Dense) *mat.Dense {
	n, t := e.Dims()
	b := mat.New(n, t)
	for i := 0; i < n; i++ {
		eRow := e.RowView(i)
		dRow := d.RowView(i)
		bRow := b.RowView(i)
		for j := 0; j < t; j++ {
			if eRow[j] == 1 && dRow[j] == 0 {
				bRow[j] = 1
			}
		}
	}
	return b
}

// adaptiveHigh widens the raise threshold to sit above the
// reconstruction's own error level: the 99th percentile of |S−Ŝ| over
// currently-trusted cells, with 25 % headroom, floored at the configured
// threshold. Trusted cells are overwhelmingly clean, so this tracks the
// truncation/noise floor rather than the faults.
func adaptiveHigh(s, sHat, b *mat.Dense, floor float64) float64 {
	n, t := s.Dims()
	residuals := make([]float64, 0, n*t)
	for i := 0; i < n; i++ {
		sRow := s.RowView(i)
		hRow := sHat.RowView(i)
		bRow := b.RowView(i)
		for j := 0; j < t; j++ {
			if bRow[j] == 1 {
				diff := sRow[j] - hRow[j]
				if diff < 0 {
					diff = -diff
				}
				residuals = append(residuals, diff)
			}
		}
	}
	q, err := stat.Quantile(residuals, 0.99)
	if err != nil {
		return floor
	}
	if adaptive := 1.25 * q; adaptive > floor {
		return adaptive
	}
	return floor
}

// check implements Algorithm 3 for one axis: clear flags whose sensory
// value now agrees with the reconstruction (|S−Ŝ| < low), raise flags that
// strongly disagree (|S−Ŝ| > high). Missing cells are skipped — they hold
// no sensory value to compare, and flapping them would prevent convergence
// (implementation note; the paper iterates over all of S but a missing
// cell's stored zero is an encoding artifact, not data).
func check(s, sHat, d, e *mat.Dense, low, high float64) *mat.Dense {
	n, t := s.Dims()
	out := d.Clone()
	for i := 0; i < n; i++ {
		sRow := s.RowView(i)
		hRow := sHat.RowView(i)
		dRow := d.RowView(i)
		eRow := e.RowView(i)
		oRow := out.RowView(i)
		for j := 0; j < t; j++ {
			if eRow[j] == 0 {
				continue
			}
			diff := sRow[j] - hRow[j]
			if diff < 0 {
				diff = -diff
			}
			switch {
			case diff < low && dRow[j] == 1:
				oRow[j] = 0
			case diff > high && dRow[j] == 0:
				oRow[j] = 1
			}
		}
	}
	return out
}

// accumulateRowFlips adds the per-row count of entries CHECK flipped
// (pre-check detection vs post-check) into acc. Check only touches
// observed cells, so the diff is automatically restricted to them.
func accumulateRowFlips(acc []int, pre, post *mat.Dense) {
	n, t := pre.Dims()
	for i := 0; i < n; i++ {
		pr := pre.RowView(i)
		qr := post.RowView(i)
		for j := 0; j < t; j++ {
			if pr[j] != qr[j] {
				acc[i]++
			}
		}
	}
}

// diffCount counts elements that differ between two binary matrices.
func diffCount(a, b *mat.Dense) int {
	n, t := a.Dims()
	var cnt int
	for i := 0; i < n; i++ {
		ar := a.RowView(i)
		br := b.RowView(i)
		for j := 0; j < t; j++ {
			if ar[j] != br[j] {
				cnt++
			}
		}
	}
	return cnt
}

// flagCount counts raised flags over observed cells.
func flagCount(d, e *mat.Dense) int {
	n, t := d.Dims()
	var cnt int
	for i := 0; i < n; i++ {
		dr := d.RowView(i)
		er := e.RowView(i)
		for j := 0; j < t; j++ {
			if dr[j] != 0 && er[j] != 0 {
				cnt++
			}
		}
	}
	return cnt
}

// maskDetection zeroes detection entries at unobserved cells: a cell with
// no observation cannot be a detected fault. TS_Detect leaves such cells
// flagged on the first pass as a bookkeeping artifact.
func maskDetection(d, e *mat.Dense) *mat.Dense {
	n, t := d.Dims()
	out := d.Clone()
	for i := 0; i < n; i++ {
		er := e.RowView(i)
		or := out.RowView(i)
		for j := 0; j < t; j++ {
			if er[j] == 0 {
				or[j] = 0
			}
		}
	}
	return out
}
