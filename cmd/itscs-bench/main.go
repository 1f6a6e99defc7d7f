// Command itscs-bench regenerates every table and figure of the paper's
// evaluation (§IV) as text tables, annotated with the shape the paper
// reports so measured values can be compared at a glance.
//
// Usage:
//
//	itscs-bench [-scale quick|paper] [-fig all|1|4a|4b|5|6|7|8] [-seed N]
//
// The matrix kernels split their rows across GOMAXPROCS goroutines; run
// with GOMAXPROCS=1 to keep them on one core. The tables are the same at
// any GOMAXPROCS, which the banner line reports.
//
// The quick scale (60×120) preserves the qualitative shapes and finishes
// in minutes on a laptop core; the paper scale (158×240) reproduces the
// evaluation dimensions exactly.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"itscs/internal/experiment"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "itscs-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("itscs-bench", flag.ContinueOnError)
	scaleName := fs.String("scale", "quick", "workload scale: quick (60x120) or paper (158x240)")
	fig := fs.String("fig", "all", "figure to regenerate: all, 1, 4a, 4b, 5, 6, 7, 8")
	seed := fs.Int64("seed", 1, "experiment seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var scale experiment.Scale
	switch *scaleName {
	case "quick":
		scale = experiment.QuickScale
	case "paper":
		scale = experiment.PaperScale
	default:
		return fmt.Errorf("unknown scale %q", *scaleName)
	}
	cfg := experiment.DefaultConfig(scale)
	cfg.Seed = *seed

	figures := map[string]func(experiment.Config) error{
		"1":  fig1,
		"4a": fig4a,
		"4b": fig4b,
		"5":  fig5,
		"6":  fig6,
		"7":  fig7,
		"8":  fig8,
	}
	order := []string{"1", "4a", "4b", "5", "6", "7", "8"}

	fmt.Printf("I(TS,CS) evaluation harness — scale %dx%d, seed %d, GOMAXPROCS %d\n\n",
		scale.Participants, scale.Slots, *seed, runtime.GOMAXPROCS(0))

	if *fig != "all" {
		f, ok := figures[*fig]
		if !ok {
			return fmt.Errorf("unknown figure %q", *fig)
		}
		return f(cfg)
	}
	for _, name := range order {
		if err := figures[name](cfg); err != nil {
			return fmt.Errorf("figure %s: %w", name, err)
		}
	}
	return nil
}

func header(title, shape string) {
	fmt.Println(strings.Repeat("=", 76))
	fmt.Println(title)
	fmt.Println("paper shape:", shape)
	fmt.Println(strings.Repeat("-", 76))
}

func fig1(cfg experiment.Config) error {
	header("Figure 1 — faulty data and missing values in a corrupted trace",
		"faulty points jump kilometers off-route; clean steps stay sub-km")
	start := time.Now()
	stats, err := experiment.Fig1(cfg, 0.11, 0.28)
	if err != nil {
		return err
	}
	fmt.Printf("requested: alpha=%.2f beta=%.2f   realized: missing=%.3f faulty=%.3f\n",
		stats.Alpha, stats.Beta, stats.RealizedMissing, stats.RealizedFaulty)
	fmt.Printf("mean injected bias: %.0f m (paper: \"typically at least kilometers\")\n", stats.MeanBiasMeters)
	fmt.Printf("clean step p95: %.0f m   corrupted max step: %.0f m\n",
		stats.CleanStepP95, stats.MaxStepMeters)
	fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
	return nil
}

func fig4a(cfg experiment.Config) error {
	header("Figure 4(a) — singular-value energy CDF of the coordinate matrices",
		"top ~9-11% of singular values carry 95% of the energy")
	start := time.Now()
	points, err := experiment.Fig4a(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%-18s %-10s %-10s\n", "normalized index", "X energy", "Y energy")
	var doneX, doneY bool
	for _, p := range points {
		// Print a compact sweep plus the 95% crossings.
		if p.NormalizedIndex <= 0.25 || int(p.NormalizedIndex*100)%20 == 0 {
			if p.NormalizedIndex <= 0.05 || int(p.NormalizedIndex*1000)%25 == 0 {
				fmt.Printf("%-18.3f %-10.4f %-10.4f\n", p.NormalizedIndex, p.EnergyX, p.EnergyY)
			}
		}
		if !doneX && p.EnergyX >= 0.95 {
			fmt.Printf("X reaches 95%% energy at %.1f%% of the spectrum\n", p.NormalizedIndex*100)
			doneX = true
		}
		if !doneY && p.EnergyY >= 0.95 {
			fmt.Printf("Y reaches 95%% energy at %.1f%% of the spectrum\n", p.NormalizedIndex*100)
			doneY = true
		}
	}
	fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
	return nil
}

func fig4b(cfg experiment.Config) error {
	header("Figure 4(b) — temporal stability, raw vs velocity-improved",
		"95th percentile drops from ~410 m to ~210 m with velocity")
	start := time.Now()
	rows, err := experiment.Fig4b(cfg, []float64{0.5, 0.75, 0.9, 0.95, 0.99})
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %-10s %-10s %-10s %-10s\n", "quantile", "|Δx| m", "|Δy| m", "|Δvx| m", "|Δvy| m")
	for _, r := range rows {
		fmt.Printf("%-10.2f %-10.0f %-10.0f %-10.0f %-10.0f\n", r.Quantile, r.DX, r.DY, r.DVX, r.DVY)
	}
	fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
	return nil
}

func fig5(cfg experiment.Config) error {
	header("Figure 5 — faulty-data detection precision & recall",
		"TMM degrades with alpha/beta; all I(TS,CS) variants stay >95% even at 40/40")
	start := time.Now()
	points, err := experiment.Fig5(cfg,
		[]float64{0, 0.2, 0.4},
		[]float64{0.1, 0.2, 0.3, 0.4})
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %-6s %-18s %-11s %-9s %s\n", "alpha", "beta", "method", "precision", "recall", "iters")
	for _, p := range points {
		iters := "-"
		if p.Iterations > 0 {
			iters = fmt.Sprintf("%d", p.Iterations)
		}
		fmt.Printf("%-6.2f %-6.2f %-18s %-11.4f %-9.4f %s\n",
			p.Alpha, p.Beta, p.Method, p.Precision, p.Recall, iters)
	}
	fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
	return nil
}

func fig6(cfg experiment.Config) error {
	header("Figure 6 — reconstruction error (MAE, meters)",
		"plain CS blows past 1200 m as beta grows; I(TS,CS) stays ~200 m; w/o VT ~2x full; w/o V ~10-18% worse")
	start := time.Now()
	points, err := experiment.Fig6(cfg,
		[]float64{0.1, 0.2, 0.3},
		[]float64{0, 0.1, 0.2, 0.3, 0.4})
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %-6s %-18s %s\n", "alpha", "beta", "method", "MAE (m)")
	for _, p := range points {
		fmt.Printf("%-6.2f %-6.2f %-18s %.1f\n", p.Alpha, p.Beta, p.Method, p.MAE)
	}
	fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
	return nil
}

func fig7(cfg experiment.Config) error {
	header("Figure 7 — impact of faulty velocity data",
		"gamma<=20% barely moves MAE; even 40% only slightly; dropping velocity is worse")
	start := time.Now()
	points, err := experiment.Fig7(cfg,
		[]float64{0.2, 0.4},
		[]float64{0.1, 0.2, 0.3, 0.4},
		[]float64{0, 0.2, 0.4})
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %-6s %-6s %-18s %s\n", "alpha", "beta", "gamma", "method", "MAE (m)")
	for _, p := range points {
		fmt.Printf("%-6.2f %-6.2f %-6.2f %-18s %.1f\n", p.Alpha, p.Beta, p.Gamma, p.Method, p.MAE)
	}
	fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
	return nil
}

func fig8(cfg experiment.Config) error {
	header("Figure 8 — convergence of I(TS,CS)",
		"large gain from iteration 1 to 2, stable within ~4 iterations even at 40/40")
	start := time.Now()
	points, err := experiment.Fig8(cfg, []struct{ Alpha, Beta float64 }{
		{0.2, 0.2}, {0.2, 0.4}, {0.4, 0.2}, {0.4, 0.4},
	})
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %-6s %-5s %-11s %-9s %-10s %s\n",
		"alpha", "beta", "iter", "precision", "recall", "MAE (m)", "changed flags")
	for _, p := range points {
		fmt.Printf("%-6.2f %-6.2f %-5d %-11.4f %-9.4f %-10.1f %d\n",
			p.Alpha, p.Beta, p.Iteration, p.Precision, p.Recall, p.MAE, p.Changed)
	}
	fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
	return nil
}
