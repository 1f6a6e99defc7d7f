// Command itscs-detect runs the I(TS,CS) framework over CSV matrices and
// writes the detection mask and repaired trajectories.
//
// Usage:
//
//	itscs-detect -x sx.csv -y sy.csv -vx vx.csv -vy vy.csv -out DIR
//	             [-tau 30s] [-variant full|nov|novt] [-max-iter 10]
//
// Input matrices are participants × slots; NaN cells in the coordinate
// files mark missing observations (as written by tracegen). Output files:
// faulty.csv (0/1 detection mask), x-repaired.csv, y-repaired.csv.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"itscs"
	"itscs/internal/mat"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "itscs-detect:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("itscs-detect", flag.ContinueOnError)
	xPath := fs.String("x", "", "X coordinate CSV (required)")
	yPath := fs.String("y", "", "Y coordinate CSV (required)")
	vxPath := fs.String("vx", "", "X velocity CSV (required)")
	vyPath := fs.String("vy", "", "Y velocity CSV (required)")
	outDir := fs.String("out", "", "output directory (required)")
	tau := fs.Duration("tau", 30*time.Second, "slot duration")
	variantName := fs.String("variant", "full", "reconstruction variant: full, nov (no velocity), novt (plain CS)")
	maxIter := fs.Int("max-iter", 10, "maximum DETECT/CORRECT iterations")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, f := range []struct{ name, v string }{
		{"-x", *xPath}, {"-y", *yPath}, {"-vx", *vxPath}, {"-vy", *vyPath}, {"-out", *outDir},
	} {
		if f.v == "" {
			return fmt.Errorf("%s is required", f.name)
		}
	}
	variant, err := parseVariant(*variantName)
	if err != nil {
		return err
	}

	ds := itscs.Dataset{}
	for _, item := range []struct {
		path string
		dst  *[][]float64
	}{
		{*xPath, &ds.X}, {*yPath, &ds.Y}, {*vxPath, &ds.VX}, {*vyPath, &ds.VY},
	} {
		rows, err := readCSV(item.path)
		if err != nil {
			return err
		}
		*item.dst = rows
	}

	res, err := itscs.Run(ds,
		itscs.WithSlotDuration(*tau),
		itscs.WithVariant(variant),
		itscs.WithMaxIterations(*maxIter),
	)
	if err != nil {
		return err
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}
	outputs := map[string][][]float64{
		"faulty.csv":     boolRows(res.Faulty),
		"x-repaired.csv": res.X,
		"y-repaired.csv": res.Y,
	}
	for name, rows := range outputs {
		if err := writeCSV(filepath.Join(*outDir, name), rows); err != nil {
			return err
		}
	}

	var flagged, missing int
	for i := range res.Faulty {
		for j := range res.Faulty[i] {
			if res.Faulty[i][j] {
				flagged++
			}
			if res.Missing[i][j] {
				missing++
			}
		}
	}
	fmt.Printf("%d participants x %d slots: %d cells flagged faulty, %d missing, converged=%v in %d iterations\n",
		len(res.Faulty), len(res.Faulty[0]), flagged, missing, res.Converged, res.Iterations)
	return nil
}

func parseVariant(name string) (itscs.Variant, error) {
	switch name {
	case "full":
		return itscs.VariantFull, nil
	case "nov":
		return itscs.VariantNoVelocity, nil
	case "novt":
		return itscs.VariantPlainCS, nil
	default:
		return 0, fmt.Errorf("unknown variant %q", name)
	}
}

func boolRows(rows [][]bool) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = make([]float64, len(r))
		for j, v := range r {
			if v {
				out[i][j] = 1
			}
		}
	}
	return out
}

func readCSV(path string) ([][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", path, err)
	}
	defer f.Close()
	m, err := mat.ReadCSV(f)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	rows := make([][]float64, m.Rows())
	for i := range rows {
		rows[i] = m.Row(i)
	}
	return rows, nil
}

func writeCSV(path string, rows [][]float64) error {
	m, err := mat.NewFromRows(rows)
	if err != nil {
		return fmt.Errorf("assemble %s: %w", path, err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	if err := mat.WriteCSV(f, m); err != nil {
		_ = f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}
