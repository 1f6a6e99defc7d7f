package obs

import (
	"strings"
	"testing"
	"time"

	"itscs/internal/metrics"
)

func TestPromCountersAndGauges(t *testing.T) {
	p := NewProm()
	p.Counter("itscs_reports_ingested_total", "Accepted reports.", 42)
	p.Counter("itscs_fleet_windows_dropped_total", "Drops by fleet.", 3, Label{"fleet", "cab"})
	p.Counter("itscs_fleet_windows_dropped_total", "Drops by fleet.", 1, Label{"fleet", `we"ird\fleet`})
	p.Gauge("itscs_queue_depth", "Queue occupancy.", 7)
	out := string(p.Bytes())

	for _, want := range []string{
		"# HELP itscs_reports_ingested_total Accepted reports.\n",
		"# TYPE itscs_reports_ingested_total counter\n",
		"itscs_reports_ingested_total 42\n",
		`itscs_fleet_windows_dropped_total{fleet="cab"} 3` + "\n",
		`itscs_fleet_windows_dropped_total{fleet="we\"ird\\fleet"} 1` + "\n",
		"# TYPE itscs_queue_depth gauge\n",
		"itscs_queue_depth 7\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// The shared-name counter must emit its header exactly once.
	if n := strings.Count(out, "# TYPE itscs_fleet_windows_dropped_total counter"); n != 1 {
		t.Errorf("TYPE emitted %d times, want 1", n)
	}
	if err := LintExposition(p.Bytes()); err != nil {
		t.Errorf("lint: %v", err)
	}
}

func TestPromHistogram(t *testing.T) {
	h := metrics.NewHistogram(metrics.HistBuckets)
	h.Observe(500 * time.Microsecond) // le 1 ms bucket
	h.Observe(3 * time.Millisecond)   // le 4 ms bucket
	h.Observe(90 * time.Second)       // overflow

	p := NewProm()
	p.Histogram("itscs_phase_latency_seconds", "Per-phase latency.", h.Snapshot(), Label{"phase", "detect"})
	out := string(p.Bytes())

	for _, want := range []string{
		"# TYPE itscs_phase_latency_seconds histogram",
		`itscs_phase_latency_seconds_bucket{phase="detect",le="0.001"} 1`,
		`itscs_phase_latency_seconds_bucket{phase="detect",le="0.004"} 2`,
		`itscs_phase_latency_seconds_bucket{phase="detect",le="32.768"} 2`,
		`itscs_phase_latency_seconds_bucket{phase="detect",le="+Inf"} 3`,
		`itscs_phase_latency_seconds_count{phase="detect"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, `itscs_phase_latency_seconds_sum{phase="detect"} 90.00`) {
		t.Errorf("sum not in seconds:\n%s", out)
	}
	if err := LintExposition(p.Bytes()); err != nil {
		t.Errorf("lint: %v", err)
	}

	// An empty histogram still renders the full shape-stable bucket scheme.
	p = NewProm()
	p.Histogram("x_seconds", "Empty.", metrics.HistogramSnapshot{Buckets: map[int64]uint64{}})
	if got := strings.Count(string(p.Bytes()), "x_seconds_bucket"); got != len(metrics.HistBuckets)+1 {
		t.Errorf("empty histogram rendered %d buckets, want %d", got, len(metrics.HistBuckets)+1)
	}
	if err := LintExposition(p.Bytes()); err != nil {
		t.Errorf("empty histogram lint: %v", err)
	}
}

func TestFormatFloat(t *testing.T) {
	for v, want := range map[float64]string{
		0: "0", 42: "42", 0.001: "0.001", 1.5: "1.5",
	} {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}
