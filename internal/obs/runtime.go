package obs

import (
	"log/slog"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// gcPauseBoundsS are the GC pause histogram bounds in seconds: sub-100 µs
// pauses are the Go collector's healthy regime, tens of milliseconds mean
// the stop-the-world phases are interfering with window deadlines.
var gcPauseBoundsS = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3,
}

// Runtime accumulates a daemon's process self-metrics for its /metrics
// exposition: build identity, uptime, goroutine count, heap shape, GC
// cycles, and a cumulative GC pause histogram. It records when the daemon
// started, so /healthz and /status read uptime from it too. Safe for
// concurrent use; one instance per process.
//
// The pause histogram has to be folded incrementally: runtime.MemStats
// only retains the last 256 pauses, so Emit tracks the newest GC cycle it
// has seen and folds only the pauses that happened since, keeping the
// exposed histogram monotone across scrapes no matter the scrape interval.
type Runtime struct {
	started time.Time

	mu          sync.Mutex
	lastNumGC   uint32
	pauseCounts []uint64 // len(gcPauseBoundsS)+1, overflow last
	pauseSumS   float64
	pauseN      uint64
}

// NewRuntime returns a runtime self-metrics accumulator whose uptime
// counts from now.
func NewRuntime() *Runtime {
	return &Runtime{started: time.Now(), pauseCounts: make([]uint64, len(gcPauseBoundsS)+1)}
}

// Uptime returns the time since NewRuntime.
func (rt *Runtime) Uptime() time.Duration { return time.Since(rt.started) }

// Emit folds the runtime state since the previous call and appends the
// self-metric series to p, each named with the given prefix (for example
// "itscs_" yields itscs_build_info and itscs_go_goroutines).
func (rt *Runtime) Emit(p *Prom, prefix string) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)

	rt.mu.Lock()
	// Fold pauses for GC cycles (lastNumGC, NumGC]; PauseNs is a ring
	// indexed by (cycle-1)%256, and cycles more than 256 back are gone.
	from := rt.lastNumGC + 1
	if m.NumGC > 256 && from < m.NumGC-255 {
		from = m.NumGC - 255
	}
	for k := from; k <= m.NumGC; k++ {
		pauseS := float64(m.PauseNs[(k+255)%256]) / 1e9
		i := 0
		for ; i < len(gcPauseBoundsS); i++ {
			if pauseS <= gcPauseBoundsS[i] {
				break
			}
		}
		rt.pauseCounts[i]++
		rt.pauseSumS += pauseS
		rt.pauseN++
	}
	rt.lastNumGC = m.NumGC
	counts := append([]uint64(nil), rt.pauseCounts...)
	sumS, n := rt.pauseSumS, rt.pauseN
	rt.mu.Unlock()

	p.Gauge(prefix+"build_info", "Build identity of the running binary; the value is always 1.",
		1, buildInfoLabels()...)
	p.Gauge(prefix+"uptime_seconds", "Seconds since the daemon started.", rt.Uptime().Seconds())
	p.Gauge(prefix+"go_goroutines", "Current number of goroutines.", float64(runtime.NumGoroutine()))
	p.Gauge(prefix+"go_heap_alloc_bytes", "Heap bytes allocated and still in use.", float64(m.HeapAlloc))
	p.Gauge(prefix+"go_heap_sys_bytes", "Heap bytes obtained from the OS.", float64(m.HeapSys))
	p.Gauge(prefix+"go_heap_objects", "Number of allocated heap objects.", float64(m.HeapObjects))
	p.Counter(prefix+"go_gc_cycles_total", "Completed GC cycles.", float64(m.NumGC))
	p.HistogramRaw(prefix+"go_gc_pause_seconds", "Stop-the-world GC pause durations.",
		gcPauseBoundsS, counts, sumS, n)
}

// buildSettings reads the binary's build metadata: the main module's path
// and version plus the VCS settings (vcs.revision, vcs.time,
// vcs.modified). ok is false when the binary carries no build info.
func buildSettings() (module, version string, vcs map[string]string, ok bool) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "", "", nil, false
	}
	vcs = map[string]string{}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision", "vcs.time", "vcs.modified":
			vcs[s.Key] = s.Value
		}
	}
	return bi.Main.Path, bi.Main.Version, vcs, true
}

// BuildInfoAttrs returns the module path, version, Go toolchain and VCS
// revision as slog attrs, for the startup banner both daemons emit. Values
// default to "unknown" when the binary was built without module or VCS
// metadata, so the banner's shape is stable.
func BuildInfoAttrs() []slog.Attr {
	module, version, revision := "unknown", "unknown", "unknown"
	if m, v, vcs, ok := buildSettings(); ok {
		if m != "" {
			module = m
		}
		if v != "" {
			version = v
		}
		if r, ok := vcs["vcs.revision"]; ok {
			revision = r
		}
	}
	return []slog.Attr{
		slog.String("module", module),
		slog.String("version", version),
		slog.String("revision", revision),
		slog.String("go", runtime.Version()),
	}
}

// buildInfoLabels returns the identity labels of a *_build_info gauge:
// go_version always, module and revision when the binary carries them.
func buildInfoLabels() []Label {
	labels := []Label{{Name: "go_version", Value: runtime.Version()}}
	if module, _, vcs, ok := buildSettings(); ok {
		labels = append(labels, Label{Name: "module", Value: module})
		if r, ok := vcs["vcs.revision"]; ok {
			labels = append(labels, Label{Name: "revision", Value: r})
		}
	}
	return labels
}

// BuildInfo returns the JSON build identity served under /status and
// /debug/buildinfo: toolchain and uptime, plus the module, its version and
// the VCS state when the binary was built from a checkout.
func BuildInfo(uptime time.Duration) map[string]any {
	info := map[string]any{
		"go_version": runtime.Version(),
		"uptime_s":   uptime.Seconds(),
	}
	if module, version, vcs, ok := buildSettings(); ok {
		info["module"] = module
		if version != "" {
			info["version"] = version
		}
		for k, v := range vcs {
			info[k] = v
		}
	}
	return info
}

// SortedKeys returns m's keys in ascending order, so expositions built from
// maps are byte-stable across scrapes.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
