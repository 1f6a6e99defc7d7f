package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"itscs/internal/cluster"
	"itscs/internal/mcs"
	"itscs/internal/obs"
	"itscs/internal/pipeline"
	"itscs/internal/reputation"
	"itscs/internal/wal"
)

// stamp names a point on a report's path. Each report is keyed by fleet,
// participant and slot, and gets one timestamp per point it passes.
type stamp int

const (
	stGenSend  stamp = iota // generator wrote the line
	stDoorAck               // generator read the router door's ack
	stFwdIn                 // Forwarder.Ingest entered
	stFwdOut                // Forwarder.Ingest returned
	stOwnerIn               // owner's Engine.Ingest entered
	stOwnerOut              // owner's Engine.Ingest returned
	stWALIn                 // owner's WAL Append entered
	stWALOut                // owner's WAL Append returned
	numStamps
)

var stampNames = [numStamps]string{"gen_send", "door_ack", "fwd_in", "fwd_out", "owner_in", "owner_out", "wal_in", "wal_out"}

// timing names a call the tracer times without a report key.
type timing int

const (
	tOpen          timing = iota // wal.Open: segment scan and tail repair
	tCkRead                      // wal.LatestCheckpoint
	tRestore                     // Engine.Restore
	tLedgerRestore               // Ledger.Restore
	tCkEngine                    // Engine.Checkpoint
	tCkWrite                     // wal.WriteCheckpoint
	tCompact                     // Log.Compact
	tFold                        // Ledger.Fold
	tWindowClose                 // Engine.Ingest calls during which a window closed
	numTimings
)

type windowKey struct {
	fleet string
	seq   int
}

// tracer records spans at the public seams of every layer during a traced
// pass. It keeps them in memory and writes them out when the pass ends.
// Every method is a no-op on a nil tracer, which is how untraced passes
// run the same code.
type tracer struct {
	epoch        time.Time
	fleets       map[string]int
	fleetNames   []string
	participants int
	slots        int
	stamps       [numStamps][]atomic.Int64 // ns since epoch plus one; 0 is unset

	admitNS atomic.Int64

	mu            sync.Mutex
	timings       [numTimings][]time.Duration
	ckBytes       []float64
	replayTotal   []time.Duration
	replayEngine  []time.Duration
	replayRecords []float64
	spans         []obs.Span
	receipts      map[windowKey]time.Time
	lateMax       time.Duration
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), receipts: map[windowKey]time.Time{}}
}

// setKeys sizes the report span table. It must run before any traffic.
func (t *tracer) setKeys(fleets []string, participants, slots int) {
	if t == nil {
		return
	}
	t.fleets = map[string]int{}
	for i, f := range fleets {
		t.fleets[f] = i
	}
	t.fleetNames, t.participants, t.slots = fleets, participants, slots
	for i := range t.stamps {
		t.stamps[i] = make([]atomic.Int64, len(fleets)*slots*participants)
	}
}

// key maps a report to its span slot, or -1 when it has none.
func (t *tracer) key(r mcs.Report) int32 {
	if t == nil {
		return -1
	}
	f, ok := t.fleets[r.Fleet]
	if !ok || r.Participant < 0 || r.Participant >= t.participants || r.Slot < 0 || r.Slot >= t.slots {
		return -1
	}
	return int32((f*t.slots+r.Slot)*t.participants + r.Participant)
}

func (t *tracer) stamp(s stamp, key int32, at time.Time) {
	if t == nil || key < 0 {
		return
	}
	t.stamps[s][key].Store(int64(at.Sub(t.epoch)) + 1)
}

func (t *tracer) stampAll(s stamp, keys []int32, at time.Time) {
	for _, k := range keys {
		t.stamp(s, k, at)
	}
}

func (t *tracer) observe(k timing, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.timings[k] = append(t.timings[k], d)
	t.mu.Unlock()
}

func (t *tracer) observeBytes(n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ckBytes = append(t.ckBytes, float64(n))
	t.mu.Unlock()
}

// observeReplay records one log replay: its total time, the part spent in
// the engine's Replay callback, and the records it delivered.
func (t *tracer) observeReplay(total, inEngine time.Duration, records uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.replayTotal = append(t.replayTotal, total)
	t.replayEngine = append(t.replayEngine, inEngine)
	t.replayRecords = append(t.replayRecords, float64(records))
	t.mu.Unlock()
}

func (t *tracer) noteLate(d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if d > t.lateMax {
		t.lateMax = d
	}
	t.mu.Unlock()
}

// received records when a subscriber got a window's result.
func (t *tracer) received(fleet string, seq int, at time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.receipts[windowKey{fleet, seq}] = at
	t.mu.Unlock()
}

// WindowProcessed makes the tracer the engine's obs.Observer. Dropped and
// failed windows are counted from the engine's stats instead.
func (t *tracer) WindowProcessed(s obs.Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) WindowDropped(string, int, int)  {}
func (t *tracer) WindowFailed(string, int, error) {}

// instrument wraps the engine configuration's seams: the WAL, the
// admission gate, the result fold and the window observer.
func (t *tracer) instrument(cfg *pipeline.Config, log *wal.Log, ledger *reputation.Ledger) {
	if t == nil {
		return
	}
	cfg.Log = tracedLog{Log: log, t: t}
	cfg.Gate = tracedGate{l: ledger, t: t}
	cfg.OnResult = func(res *pipeline.WindowResult) {
		began := time.Now()
		ledger.Fold(res)
		t.observe(tFold, time.Since(began))
	}
	cfg.Obs = t
}

type tracedLog struct {
	*wal.Log
	t *tracer
}

func (l tracedLog) Append(r mcs.Report) error {
	k := l.t.key(r)
	l.t.stamp(stWALIn, k, time.Now())
	err := l.Log.Append(r)
	l.t.stamp(stWALOut, k, time.Now())
	return err
}

type tracedGate struct {
	l *reputation.Ledger
	t *tracer
}

func (g tracedGate) Admit(fleet string, participant int) pipeline.Admission {
	began := time.Now()
	a := g.l.Admit(fleet, participant)
	g.t.admitNS.Add(int64(time.Since(began)))
	return a
}

// routerDoor is what the router's mcs.Server feeds: the forwarder itself,
// or on a traced pass a wrapper timing each Forwarder.Ingest.
func (t *tracer) routerDoor(fwd *cluster.Forwarder) mcs.Ingestor {
	if t == nil {
		return fwd
	}
	return tracedForwarder{fwd: fwd, t: t}
}

type tracedForwarder struct {
	fwd *cluster.Forwarder
	t   *tracer
}

func (f tracedForwarder) Ingest(r mcs.Report) error {
	k := f.t.key(r)
	f.t.stamp(stFwdIn, k, time.Now())
	err := f.fwd.Ingest(r)
	f.t.stamp(stFwdOut, k, time.Now())
	return err
}

// ownerDoor is what a backend's mcs.Server feeds: the engine, or on a
// traced pass a wrapper timing each Engine.Ingest. closed is the
// backend's OnWindowClose count; a call during which it moved closed a
// window. Each backend's door has one connection (the router's client), so
// the count moves only inside the call that closed the window.
func (t *tracer) ownerDoor(e *pipeline.Engine, closed *atomic.Uint64) mcs.Ingestor {
	if t == nil {
		return e
	}
	return tracedEngine{e: e, closed: closed, t: t}
}

type tracedEngine struct {
	e      *pipeline.Engine
	closed *atomic.Uint64
	t      *tracer
}

func (e tracedEngine) Ingest(r mcs.Report) error {
	k := e.t.key(r)
	before := e.closed.Load()
	began := time.Now()
	e.t.stamp(stOwnerIn, k, began)
	err := e.e.Ingest(r)
	end := time.Now()
	e.t.stamp(stOwnerOut, k, end)
	if e.closed.Load() != before {
		e.t.observe(tWindowClose, end.Sub(began))
	}
	return err
}

// layerInputs carries what a traced pass read from the system's own
// counters.
type layerInputs struct {
	wallS   float64 // the measured span of the pass
	fwd     cluster.ForwarderStats
	engines []pipeline.Stats
}

// layerMetric names one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// layerMetricNames is every per-layer metric, in report order.
var layerMetricNames = []layerMetric{
	{"mcs.door_ack_us_p50", "us"}, {"mcs.door_ack_us_p99", "us"},
	{"mcs.forward_lag_ms_p50", "ms"}, {"mcs.forward_lag_ms_p99", "ms"},
	{"mcs.forward_sent", "count"}, {"mcs.forward_retries", "count"}, {"mcs.forward_dropped", "count"},
	{"cluster.forward_calls", "count"}, {"cluster.forward_busy_s", "s"}, {"cluster.forward_us_p99", "us"},
	{"cluster.placement_skew", "ratio"},
	{"pipeline.ingest_calls", "count"}, {"pipeline.ingest_busy_s", "s"},
	{"pipeline.ingest_us_p50", "us"}, {"pipeline.ingest_us_p99", "us"},
	{"pipeline.window_close_us_p99", "us"},
	{"pipeline.queue_wait_ms_p50", "ms"}, {"pipeline.queue_wait_ms_p90", "ms"},
	{"pipeline.publish_lag_ms_p90", "ms"},
	{"pipeline.windows_processed", "count"}, {"pipeline.windows_dropped", "count"},
	{"pipeline.checkpoint_ms", "ms"}, {"pipeline.restore_ms", "ms"}, {"pipeline.replay_busy_s", "s"},
	{"wal.append_us_p50", "us"}, {"wal.append_us_p99", "us"}, {"wal.append_busy_s", "s"},
	{"wal.checkpoint_write_ms", "ms"}, {"wal.checkpoint_bytes", "bytes"}, {"wal.compact_ms", "ms"},
	{"wal.open_ms", "ms"}, {"wal.checkpoint_read_ms", "ms"}, {"wal.replay_self_s", "s"}, {"wal.replay_records", "count"},
	{"core.run_ms_p50", "ms"}, {"core.run_ms_p90", "ms"},
	{"core.detect_ms_p50", "ms"}, {"core.correct_ms_p50", "ms"}, {"core.check_ms_p50", "ms"},
	{"core.sweeps_per_window", "count"}, {"core.iterations_per_window", "count"},
	{"core.warm_start_frac", "ratio"}, {"core.busy_frac", "ratio"},
	{"reputation.fold_us_p99", "us"}, {"reputation.fold_calls", "count"},
	{"reputation.admit_busy_s", "s"}, {"reputation.restore_ms", "ms"},
	{"bench.gen_late_ms_max", "ms"},
}

// between collects b−a over every report that has both stamps, in the
// given unit, clamping negatives (b seen before a on another goroutine) to 0.
func (t *tracer) between(a, b stamp, unit time.Duration) []float64 {
	var out []float64
	for i := range t.stamps[a] {
		sa, sb := t.stamps[a][i].Load(), t.stamps[b][i].Load()
		if sa == 0 || sb == 0 {
			continue
		}
		d := sb - sa
		if d < 0 {
			d = 0
		}
		out = append(out, float64(d)/float64(unit))
	}
	return out
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func medianDur(ds []time.Duration, unit time.Duration) float64 {
	return quantile(durations(ds, unit), 0.5)
}

func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// layerMetrics turns the traced pass's spans and counters into every
// per-layer metric. A layer the workload does not exercise reads 0.
func (t *tracer) layerMetrics(o *outcome) map[string]metric {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := map[string]float64{}
	doorAck := t.between(stGenSend, stDoorAck, time.Microsecond)
	v["mcs.door_ack_us_p50"], v["mcs.door_ack_us_p99"] = quantile(doorAck, 0.5), quantile(doorAck, 0.99)
	lag := t.between(stFwdOut, stOwnerIn, time.Millisecond)
	v["mcs.forward_lag_ms_p50"], v["mcs.forward_lag_ms_p99"] = quantile(lag, 0.5), quantile(lag, 0.99)
	for _, cs := range o.layer.fwd.Backends {
		v["mcs.forward_sent"] += float64(cs.Sent)
		v["mcs.forward_retries"] += float64(cs.Retries)
		v["mcs.forward_dropped"] += float64(cs.Dropped)
	}

	fwd := t.between(stFwdIn, stFwdOut, time.Microsecond)
	v["cluster.forward_calls"] = float64(len(fwd))
	v["cluster.forward_busy_s"] = sum(fwd) / 1e6
	v["cluster.forward_us_p99"] = quantile(fwd, 0.99)
	v["cluster.placement_skew"] = skew(o.layer.engines)

	ing := t.between(stOwnerIn, stOwnerOut, time.Microsecond)
	v["pipeline.ingest_calls"] = float64(len(ing))
	v["pipeline.ingest_busy_s"] = sum(ing) / 1e6
	v["pipeline.ingest_us_p50"], v["pipeline.ingest_us_p99"] = quantile(ing, 0.5), quantile(ing, 0.99)
	v["pipeline.window_close_us_p99"] = quantile(durations(t.timings[tWindowClose], time.Microsecond), 0.99)

	var wait, publish, run, detect, correct, check, sweeps, iters []float64
	warm := 0.0
	for _, s := range t.spans {
		wait = append(wait, s.QueueWaitMS)
		run = append(run, s.RunMS)
		detect = append(detect, s.DetectMS)
		correct = append(correct, s.CorrectMS)
		check = append(check, s.CheckMS)
		sweeps = append(sweeps, float64(s.Sweeps))
		iters = append(iters, float64(s.Iterations))
		if s.WarmStarted {
			warm++
		}
		if at, ok := t.receipts[windowKey{s.Fleet, s.Seq}]; ok {
			publish = append(publish, ms(at.Sub(s.CompletedAt)))
		}
	}
	v["pipeline.queue_wait_ms_p50"], v["pipeline.queue_wait_ms_p90"] = quantile(wait, 0.5), quantile(wait, 0.9)
	v["pipeline.publish_lag_ms_p90"] = quantile(publish, 0.9)
	for _, st := range o.layer.engines {
		v["pipeline.windows_processed"] += float64(st.WindowsProcessed)
		v["pipeline.windows_dropped"] += float64(st.WindowsDropped)
	}
	v["pipeline.checkpoint_ms"] = medianDur(t.timings[tCkEngine], time.Millisecond)
	v["pipeline.restore_ms"] = medianDur(t.timings[tRestore], time.Millisecond)
	v["pipeline.replay_busy_s"] = medianDur(t.replayEngine, time.Second)

	app := t.between(stWALIn, stWALOut, time.Microsecond)
	v["wal.append_us_p50"], v["wal.append_us_p99"] = quantile(app, 0.5), quantile(app, 0.99)
	v["wal.append_busy_s"] = sum(app) / 1e6
	v["wal.checkpoint_write_ms"] = medianDur(t.timings[tCkWrite], time.Millisecond)
	v["wal.checkpoint_bytes"] = quantile(t.ckBytes, 0.5)
	v["wal.compact_ms"] = medianDur(t.timings[tCompact], time.Millisecond)
	v["wal.open_ms"] = medianDur(t.timings[tOpen], time.Millisecond)
	v["wal.checkpoint_read_ms"] = medianDur(t.timings[tCkRead], time.Millisecond)
	self := make([]float64, len(t.replayTotal))
	for i := range t.replayTotal {
		self[i] = (t.replayTotal[i] - t.replayEngine[i]).Seconds()
	}
	v["wal.replay_self_s"] = quantile(self, 0.5)
	v["wal.replay_records"] = quantile(t.replayRecords, 0.5)

	v["core.run_ms_p50"], v["core.run_ms_p90"] = quantile(run, 0.5), quantile(run, 0.9)
	v["core.detect_ms_p50"] = quantile(detect, 0.5)
	v["core.correct_ms_p50"] = quantile(correct, 0.5)
	v["core.check_ms_p50"] = quantile(check, 0.5)
	v["core.sweeps_per_window"] = mean(sweeps)
	v["core.iterations_per_window"] = mean(iters)
	if len(t.spans) > 0 {
		v["core.warm_start_frac"] = warm / float64(len(t.spans))
	}
	if o.layer.wallS > 0 && len(o.layer.engines) > 0 {
		v["core.busy_frac"] = sum(run) / 1e3 / (o.layer.wallS * float64(len(o.layer.engines)))
	}

	v["reputation.fold_us_p99"] = quantile(durations(t.timings[tFold], time.Microsecond), 0.99)
	v["reputation.fold_calls"] = float64(len(t.timings[tFold]))
	v["reputation.admit_busy_s"] = time.Duration(t.admitNS.Load()).Seconds()
	v["reputation.restore_ms"] = medianDur(t.timings[tLedgerRestore], time.Millisecond)
	v["bench.gen_late_ms_max"] = ms(t.lateMax)

	out := make(map[string]metric, len(layerMetricNames))
	for _, m := range layerMetricNames {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}

// writeSpans writes the report spans (one row per report key that was
// stamped, times in µs since the tracer started) and the window spans (one
// row per processed window) as CSV files in dir.
func (t *tracer) writeSpans(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	err := writeCSV(filepath.Join(dir, "reports.csv"), func(w *bufio.Writer) {
		fmt.Fprint(w, "fleet,participant,slot")
		for _, n := range stampNames {
			fmt.Fprint(w, ",", n, "_us")
		}
		fmt.Fprintln(w)
		n := 0
		if len(t.fleetNames) > 0 {
			n = len(t.stamps[0])
		}
		for i := 0; i < n; i++ {
			var row [numStamps]int64
			any := false
			for s := range row {
				row[s] = t.stamps[s][i].Load()
				any = any || row[s] != 0
			}
			if !any {
				continue
			}
			p := i % t.participants
			slot := (i / t.participants) % t.slots
			fmt.Fprintf(w, "%s,%d,%d", t.fleetNames[i/(t.participants*t.slots)], p, slot)
			for _, ns := range row {
				if ns == 0 {
					fmt.Fprint(w, ",")
				} else {
					fmt.Fprintf(w, ",%.1f", float64(ns-1)/1e3)
				}
			}
			fmt.Fprintln(w)
		}
	})
	if err != nil {
		return err
	}
	spans := append([]obs.Span(nil), t.spans...)
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Fleet != spans[j].Fleet {
			return spans[i].Fleet < spans[j].Fleet
		}
		return spans[i].Seq < spans[j].Seq
	})
	return writeCSV(filepath.Join(dir, "windows.csv"), func(w *bufio.Writer) {
		fmt.Fprintln(w, "fleet,seq,start_slot,end_slot,observed,flagged,iterations,sweeps,warm_started,queue_wait_ms,detect_ms,correct_ms,check_ms,run_ms,completed_us,received_us")
		for _, s := range spans {
			received := ""
			if at, ok := t.receipts[windowKey{s.Fleet, s.Seq}]; ok {
				received = fmt.Sprintf("%.1f", float64(at.Sub(t.epoch))/1e3)
			}
			fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d,%d,%t,%.3f,%.3f,%.3f,%.3f,%.3f,%.1f,%s\n",
				s.Fleet, s.Seq, s.StartSlot, s.EndSlot, s.Observed, s.Flagged, s.Iterations, s.Sweeps,
				s.WarmStarted, s.QueueWaitMS, s.DetectMS, s.CorrectMS, s.CheckMS, s.RunMS,
				float64(s.CompletedAt.Sub(t.epoch))/1e3, received)
		}
	})
}

func writeCSV(path string, fill func(*bufio.Writer)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fill(w)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
