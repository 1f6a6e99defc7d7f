// Command perfbench is the repository's benchmark. It builds the streaming
// detection cluster in-process from the public constructors (a router made
// of cluster.Ring, cluster.Forwarder and an mcs.Server in front of two
// backends made of pipeline.Engine, wal.Log, reputation.Ledger and an
// mcs.Server), drives it over loopback TCP with a seeded load generator,
// checks the outputs and prints one JSON result as its last line.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload stream|ingest|recover --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics of one untraced
// pass. With --trace 1 the benchmark runs an untraced pass and then a traced
// one, and the result carries the per-layer metrics of the traced pass plus
// the tracing overhead (traced minus untraced) of every end-to-end metric.
// README.md lists the workloads and which layer metric should move which
// end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workDir holds everything a run writes: WAL directories (removed at exit)
// and the traced pass's span files (kept).
const workDir = ".bench_build"

var workloads = map[string]func(pass) (*outcome, error){
	"stream":  runStream,
	"ingest":  runIngest,
	"recover": runRecover,
}

// pass is one measured execution of a workload.
type pass struct {
	seed    int64
	seconds time.Duration
	dir     string  // scratch directory for WAL data
	tr      *tracer // nil on an untraced pass
}

// outcome is what a pass measured and checked.
type outcome struct {
	setupS float64
	// latencyMS holds one sample per user-visible operation: a window
	// result (stream), an ingest round (ingest) or a restart (recover).
	latencyMS   []float64
	reportsPerS float64
	peakRSSMB   float64
	attempted   int
	failed      int
	problems    []string
	operations  string        // what latencyMS counts, for the summary
	named       []namedMetric // the workload's metrics under their own names
	layer       layerInputs   // counters the traced pass turns into layer metrics
}

type namedMetric struct {
	name, unit string
	value      float64
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// metric is one value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics every workload reports, in order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"reports_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

func (o *outcome) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":        {o.setupS, "s"},
		"latency_p50_ms": {quantile(o.latencyMS, 0.5), "ms"},
		"latency_p90_ms": {quantile(o.latencyMS, 0.9), "ms"},
		"reports_per_s":  {o.reportsPerS, "1/s"},
		"peak_rss_mb":    {o.peakRSSMB, "MB"},
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: stream, ingest or recover")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 10, "seconds each pass measures")
	trace := fs.Int("trace", 0, "1 adds a traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: want --workload stream|ingest|recover, --seconds >= 1 and --trace 0|1")
		return 2
	}
	dir, err := scratchDir(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	base := pass{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	untraced, err := runPass(wl, base, filepath.Join(dir, "untraced"))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res := untraced
	metrics := untraced.endToEnd()
	if *trace == 1 {
		base.tr = newTracer()
		traced, err := runPass(wl, base, filepath.Join(dir, "traced"))
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s traced: %v\n", *name, err)
			return 1
		}
		metrics = base.tr.layerMetrics(traced)
		plain, withTrace := untraced.endToEnd(), traced.endToEnd()
		for _, m := range endToEnd {
			metrics["bench.trace_overhead."+m.name] = metric{withTrace[m.name].Value - plain[m.name].Value, m.unit}
		}
		spans := filepath.Join(workDir, "traces", fmt.Sprintf("%s-seed%d", *name, *seed))
		if err := base.tr.writeSpans(spans); err != nil {
			traced.problem("write spans: %v", err)
		} else {
			fmt.Fprintf(stdout, "spans written to %s\n", spans)
		}
		res = merge(untraced, traced)
	}
	printSummary(stdout, *name, *seed, untraced)
	for _, p := range res.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.problems) == 0 && res.failed == 0, res.attempted, res.failed, finite(metrics)})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if len(res.problems) > 0 || res.failed > 0 {
		return 1
	}
	return 0
}

// runPass gives the pass its own WAL directory.
func runPass(wl func(pass) (*outcome, error), p pass, dir string) (*outcome, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p.dir = dir
	return wl(p)
}

// freeHeap collects garbage and returns it to the operating system.
func freeHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// setUp builds a pass's inputs and cluster (its rig) n times and returns
// the last rig with the seconds each build took. Each build starts from a
// collected heap; release, untimed, tears down every rig but the last.
//
// A pass sets up n times before its measurement and n times after it (see
// setUpAgain); setup_s is the median of all of them. One set-up is too
// short for a single timing to compare between runs, and the host's speed
// drifts over tens of seconds, so set-ups on both sides of the measurement
// straddle that drift instead of sampling one moment of it.
func setUp[R any](n int, build func() (R, error), release func(R) error) (R, []float64, error) {
	var (
		rig  R
		took []float64
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := release(rig); err != nil {
				return rig, nil, err
			}
		}
		freeHeap()
		began := time.Now()
		next, err := build()
		if err != nil {
			return rig, nil, err
		}
		took = append(took, time.Since(began).Seconds())
		rig = next
	}
	return rig, took, nil
}

// setUpAgain times n more set-ups after the measurement and releases the
// last rig too. build must be untraced, so that these rigs leave the
// traced pass's spans and timings alone.
func setUpAgain[R any](n int, build func() (R, error), release func(R) error) ([]float64, error) {
	rig, took, err := setUp(n, build, release)
	if err != nil {
		return nil, err
	}
	return took, release(rig)
}

// untraced is the pass without its tracer.
func (p pass) untraced() pass {
	p.tr = nil
	return p
}

// setupDir names the directory of a pass's i-th set-up.
func setupDir(p pass, i int) string { return filepath.Join(p.dir, fmt.Sprint("setup-", i)) }

// beginMeasure ends set-up: it drops set-up garbage and restarts the peak
// RSS mark, so peak_rss_mb covers the measured part of the pass only.
func beginMeasure() {
	freeHeap()
	resetPeakRSS()
}

func scratchDir(workload string) (string, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(workDir, "run-"+workload+"-")
}

// merge folds the traced pass's checks into the untraced pass's.
func merge(a, b *outcome) *outcome {
	m := *a
	m.attempted += b.attempted
	m.failed += b.failed
	m.problems = append(append([]string(nil), a.problems...), b.problems...)
	return &m
}

// finite replaces NaN and infinities, which JSON cannot carry, with 0.
func finite(ms map[string]metric) map[string]metric {
	for k, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
			ms[k] = m
		}
	}
	return ms
}

func printSummary(w io.Writer, name string, seed int64, o *outcome) {
	fmt.Fprintf(w, "workload %s seed %d: %d %s, %d attempted, %d failed\n",
		name, seed, len(o.latencyMS), o.operations, o.attempted, o.failed)
	failedFrac := 0.0
	if o.attempted > 0 {
		failedFrac = float64(o.failed) / float64(o.attempted)
	}
	named := append([]namedMetric{{"setup_s", "s", o.setupS}}, o.named...)
	named = append(named, namedMetric{"failed_frac", "ratio", failedFrac}, namedMetric{"peak_rss_mb", "MB", o.peakRSSMB})
	for _, m := range named {
		fmt.Fprintf(w, "  %-24s %14.4f %s\n", m.name, m.value, m.unit)
	}
}

// quantile interpolates linearly between order statistics; 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM) at the current
// RSS. Kernels without the reset leave the mark covering the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM from /proc/self/status in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
