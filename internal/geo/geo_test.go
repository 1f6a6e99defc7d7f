package geo

import "testing"

func TestPointDistance(t *testing.T) {
	a := Point{X: 0, Y: 0}
	b := Point{X: 3, Y: 4}
	if d := a.DistanceTo(b); d != 5 {
		t.Fatalf("distance = %v, want 5", d)
	}
	if d := a.DistanceTo(a); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
}

func TestPointAdd(t *testing.T) {
	p := Point{X: 1, Y: 2}.Add(3, -1)
	if p.X != 4 || p.Y != 1 {
		t.Fatalf("add = %+v", p)
	}
}

func TestShanghaiLikeRegion(t *testing.T) {
	r := ShanghaiLike()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.WidthMeters != 110_000 || r.HeightMeters != 140_000 {
		t.Fatalf("extent = %vx%v", r.WidthMeters, r.HeightMeters)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []Region{
		{WidthMeters: 0, HeightMeters: 10},
		{WidthMeters: 10, HeightMeters: -1},
		{OriginLat: 91, WidthMeters: 1, HeightMeters: 1},
		{OriginLon: -181, WidthMeters: 1, HeightMeters: 1},
	}
	for i, r := range cases {
		if err := r.Validate(); err == nil {
			t.Fatalf("case %d: want validation error", i)
		}
	}
}

func TestSpeedConversions(t *testing.T) {
	if KmH(36) != 10 {
		t.Fatalf("KmH(36) = %v", KmH(36))
	}
}
