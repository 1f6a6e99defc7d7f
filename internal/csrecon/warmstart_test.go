package csrecon

import (
	"math"
	"testing"

	"itscs/internal/mat"
	"itscs/internal/trace"
)

// slidingWindows generates a fleet trace and cuts two overlapping windows
// out of it, with a deterministic sprinkling of untrusted cells, mimicking
// the streaming engine's hop from one window to the next.
func slidingWindows(t testing.TB, participants, slots, window, hop int) (s1, b1, s2, b2 *mat.Dense) {
	t.Helper()
	tc := trace.DefaultConfig()
	tc.Participants = participants
	tc.Slots = slots
	tc.Seed = 11
	fleet, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	cut := func(c0, c1 int) (*mat.Dense, *mat.Dense) {
		s, err := fleet.X.Slice(0, participants, c0, c1)
		if err != nil {
			t.Fatal(err)
		}
		b := mat.Ones(participants, c1-c0)
		for i := 0; i < participants; i++ {
			for j := (i*3 + c0) % 7; j < c1-c0; j += 7 {
				b.Set(i, j, 0) // ~14% untrusted, pattern shifts with the window
			}
		}
		return s, b
	}
	s1, b1 = cut(0, window)
	s2, b2 = cut(hop, hop+window)
	return s1, b1, s2, b2
}

func warmTestOptions() Options {
	opt := DefaultOptions()
	opt.Variant = VariantTemporal
	opt.Rank = 8
	opt.MaxIters = 2000
	// Looser than the evaluation default so both paths reach the stopping
	// criterion rather than the sweep cap, making sweep counts comparable.
	opt.TerminateRatio = 1e-5
	return opt
}

// remask flips one trusted/untrusted cell per row — the kind of small
// detection-mask refinement the DETECT→CORRECT→CHECK loop produces between
// consecutive CORRECT rounds over the same (fully overlapping) window.
func remask(b *mat.Dense) *mat.Dense {
	out := b.Clone()
	n, t := out.Dims()
	for i := 0; i < n; i++ {
		j := (i * 13) % t
		out.Set(i, j, 1-out.At(i, j))
	}
	return out
}

// TestWarmStartConvergesFasterOnOverlappingWindow is the streaming-engine
// contract: when a window is re-solved with a refined trust mask (the
// fully-overlapping window of the next DETECT→CORRECT→CHECK round), seeding
// ASD with the previous round's factors must reach the stopping criterion
// in far fewer sweeps than the truncated-SVD cold start, while landing on
// the same solution within tolerance.
//
// Note the deliberate scenario choice: on strongly nonstationary fleet
// traces, factors carried across a *slid* window (new time slots) do not
// beat the data-adaptive SVD init in sweep count, because the participant
// subspace itself rotates and subspace rotation is ASD's slowest mode; what
// the carry buys there is skipping the O(n·t²) SVD init. The re-masked
// window is where the sweep savings are large and robust.
func TestWarmStartConvergesFasterOnOverlappingWindow(t *testing.T) {
	s1, b1, _, _ := slidingWindows(t, 40, 200, 120, 40)
	opt := warmTestOptions()

	prev, err := Reconstruct(s1, b1, nil, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if prev.WarmStarted {
		t.Fatal("cold reconstruction reported WarmStarted")
	}

	b2 := remask(b1)
	cold, err := Reconstruct(s1, b2, nil, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Reconstruct(s1, b2, nil, &prev.Factors, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted {
		t.Fatal("warm reconstruction did not consume the provided factors")
	}
	t.Logf("cold: %d sweeps, objective %.6g", cold.Iterations, cold.Objective)
	t.Logf("warm: %d sweeps, objective %.6g", warm.Iterations, warm.Objective)
	if warm.Iterations >= cold.Iterations {
		t.Errorf("warm start took %d sweeps, cold %d; want fewer", warm.Iterations, cold.Iterations)
	}

	// Same solution within tolerance: objectives within 1% and the
	// reconstructions within a few meters on a kilometers-scale signal.
	if relDiff(warm.Objective, cold.Objective) > 0.01 {
		t.Errorf("objectives diverge: warm %.6g vs cold %.6g", warm.Objective, cold.Objective)
	}
	if mad := meanAbsDiff(warm.SHat, cold.SHat); mad > 10 {
		t.Errorf("reconstructions diverge: mean abs diff %.2f m", mad)
	}
}

// TestWarmStartFallsBackOnIncompatibleFactors verifies the silent cold
// fallback on every shape/rank mismatch a streaming caller can produce.
func TestWarmStartFallsBackOnIncompatibleFactors(t *testing.T) {
	s1, b1, _, _ := slidingWindows(t, 20, 120, 80, 40)
	opt := warmTestOptions()
	opt.Rank = 4
	base, err := Reconstruct(s1, b1, nil, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := s1.Dims()
	cases := map[string]*Factors{
		"nil factors":   nil,
		"zero value":    {},
		"missing R":     {L: base.Factors.L},
		"wrong rows":    {L: mat.New(n+1, 4), R: base.Factors.R},
		"rank mismatch": {L: mat.New(n, 5), R: mat.New(80, 5)},
		"ragged ranks":  {L: mat.New(n, 4), R: mat.New(80, 3)},
	}
	for name, warm := range cases {
		res, err := Reconstruct(s1, b1, nil, warm, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.WarmStarted {
			t.Errorf("%s: expected cold fallback, got warm start", name)
		}
	}
}

// TestWarmStartDoesNotMutateCallerFactors guards the clone-on-entry: the
// previous window's result must stay intact while the next window sweeps.
func TestWarmStartDoesNotMutateCallerFactors(t *testing.T) {
	s1, b1, s2, b2 := slidingWindows(t, 20, 120, 80, 40)
	opt := warmTestOptions()
	prev, err := Reconstruct(s1, b1, nil, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	lCopy := prev.Factors.L.Clone()
	rCopy := prev.Factors.R.Clone()
	if _, err := Reconstruct(s2, b2, nil, &prev.Factors, opt); err != nil {
		t.Fatal(err)
	}
	if !prev.Factors.L.Equal(lCopy, 0) || !prev.Factors.R.Equal(rCopy, 0) {
		t.Error("warm start mutated the caller's factors")
	}
}

// BenchmarkWarmVsCold measures the savings the streaming engine gets from
// carrying factors into the next CORRECT round of the same window (the
// re-masked, fully overlapping case that dominates the outer loop).
func BenchmarkWarmVsCold(b *testing.B) {
	s1, b1, _, _ := slidingWindows(b, 80, 300, 240, 60)
	opt := warmTestOptions()
	prev, err := Reconstruct(s1, b1, nil, nil, opt)
	if err != nil {
		b.Fatal(err)
	}
	b2 := remask(b1)
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Reconstruct(s1, b2, nil, nil, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Reconstruct(s1, b2, nil, &prev.Factors, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func relDiff(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

func meanAbsDiff(a, b *mat.Dense) float64 {
	n, t := a.Dims()
	var sum float64
	for i := 0; i < n; i++ {
		ar, br := a.RowView(i), b.RowView(i)
		for j := 0; j < t; j++ {
			sum += math.Abs(ar[j] - br[j])
		}
	}
	return sum / float64(n*t)
}
