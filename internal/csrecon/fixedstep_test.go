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
	opt.MaxIters = 50
	res, err := runFixedStep(s, b, nil, opt, 0.5)
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
	exact, err := Reconstruct(s, b, nil, nil, base)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := runFixedStep(s, b, nil, base, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Objective < exact.Objective {
		t.Fatalf("fixed step should not beat the exact line search at equal budget: %v vs %v",
			slow.Objective, exact.Objective)
	}
}
