package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"itscs/internal/mat"
)

// writeFixture builds a small-fleet scenario with one missing and one
// faulty cell on the first vehicle, returning the input file paths.
func writeFixture(t *testing.T, dir string) (x, y, vx, vy string) {
	t.Helper()
	const vehicles, slots = 5, 30
	xs := mat.New(vehicles, slots)
	ys := mat.New(vehicles, slots)
	vxs := mat.New(vehicles, slots)
	vys := mat.New(vehicles, slots)
	for i := 0; i < vehicles; i++ {
		speed := 8 + 2*float64(i) // m/s east
		for j := 0; j < slots; j++ {
			xs.Set(i, j, 1000*float64(i+1)+speed*30*float64(j))
			ys.Set(i, j, 2000*float64(i+1))
			vxs.Set(i, j, speed)
		}
	}
	xs.Set(0, 5, math.NaN())
	ys.Set(0, 5, math.NaN())
	xs.Add(0, 15, 5000) // 5 km fault

	paths := map[string]*mat.Dense{"x.csv": xs, "y.csv": ys, "vx.csv": vxs, "vy.csv": vys}
	for name, m := range paths {
		p := filepath.Join(dir, name)
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := mat.WriteCSV(f, m); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Join(dir, "x.csv"), filepath.Join(dir, "y.csv"),
		filepath.Join(dir, "vx.csv"), filepath.Join(dir, "vy.csv")
}

func TestRunDetectsAndRepairs(t *testing.T) {
	dir := t.TempDir()
	x, y, vx, vy := writeFixture(t, dir)
	out := filepath.Join(dir, "out")
	err := run([]string{"-x", x, "-y", y, "-vx", vx, "-vy", vy, "-out", out})
	if err != nil {
		t.Fatal(err)
	}
	faulty := readMatrix(t, filepath.Join(out, "faulty.csv"))
	if faulty.At(0, 15) != 1 {
		t.Fatal("injected fault not detected")
	}
	repaired := readMatrix(t, filepath.Join(out, "x-repaired.csv"))
	// The missing cell and the faulty cell must be repaired near the track.
	if math.IsNaN(repaired.At(0, 5)) {
		t.Fatal("missing cell not repaired")
	}
	if diff := math.Abs(repaired.At(0, 15) - (1000 + 8*30*15)); diff > 500 {
		t.Fatalf("faulty cell repaired %.0f m off track", diff)
	}
}

func TestRunVariants(t *testing.T) {
	dir := t.TempDir()
	x, y, vx, vy := writeFixture(t, dir)
	for _, v := range []string{"full", "nov", "novt"} {
		out := filepath.Join(dir, "out-"+v)
		err := run([]string{"-x", x, "-y", y, "-vx", vx, "-vy", vy, "-out", out, "-variant", v})
		if err != nil {
			t.Fatalf("variant %s: %v", v, err)
		}
	}
	out := filepath.Join(dir, "out-bad")
	err := run([]string{"-x", x, "-y", y, "-vx", vx, "-vy", vy, "-out", out, "-variant", "bogus"})
	if err == nil || !strings.Contains(err.Error(), "unknown variant") {
		t.Fatalf("bad variant should fail, got %v", err)
	}
}

func TestRunMissingFlags(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing required flags should fail")
	}
}

func TestRunMissingInputFile(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"-x", filepath.Join(dir, "nope.csv"), "-y", "a", "-vx", "b", "-vy", "c", "-out", dir})
	if err == nil {
		t.Fatal("nonexistent input should fail")
	}
}

func readMatrix(t *testing.T, path string) *mat.Dense {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := mat.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRunMissingFlagsNamesFirst pins which missing flag the error names:
// the checks run in a fixed order, so with none given it is always -x.
func TestRunMissingFlagsNamesFirst(t *testing.T) {
	for i := 0; i < 50; i++ {
		if err := run(nil); err == nil || err.Error() != "-x is required" {
			t.Fatalf("call %d: err = %v, want -x is required", i, err)
		}
	}
}
