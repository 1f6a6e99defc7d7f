package csrecon

import (
	"testing"
)

func TestFixedStepStillDescends(t *testing.T) {
	x, _ := lowRankFixture(10, 20, 21)
	b := dropCells(10, 20, 40, 22)
	s, err := x.Hadamard(b)
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions(VariantBasic)
	opt.Rank = 2
	// The scaled direction is Newton-like for the fitting term, so half
	// of its natural unit step descends steadily without the line search.
	opt.FixedStepSize = 0.5
	opt.MaxIters = 50
	res, err := ReconstructDetailed(s, b, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	first := res.ObjectiveTrace[0]
	last := res.Objective
	if last >= first {
		t.Fatalf("fixed-step ASD did not descend: %v -> %v", first, last)
	}
}

func TestFixedStepSlowerThanExact(t *testing.T) {
	x, _ := lowRankFixture(10, 20, 23)
	b := dropCells(10, 20, 40, 24)
	s, err := x.Hadamard(b)
	if err != nil {
		t.Fatal(err)
	}
	base := testOptions(VariantBasic)
	base.Rank = 2
	base.MaxIters = 30
	exact, err := ReconstructDetailed(s, b, nil, base)
	if err != nil {
		t.Fatal(err)
	}
	fixed := base
	fixed.FixedStepSize = 0.05
	slow, err := ReconstructDetailed(s, b, nil, fixed)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Objective < exact.Objective {
		t.Fatalf("fixed step should not beat the exact line search at equal budget: %v vs %v",
			slow.Objective, exact.Objective)
	}
}

func TestFixedStepValidation(t *testing.T) {
	opt := DefaultOptions()
	opt.FixedStepSize = -1
	if err := opt.Validate(); err == nil {
		t.Fatal("negative fixed step should be rejected")
	}
}
