// Package sim is the deterministic fault-injection simulation harness: it
// drives full ingest → WAL → detect → checkpoint → crash → recover loops
// under seeded fault plans and checks the system's durability invariants
// after every run.
//
// A Scenario describes one storm: the fleet shape, the corruption ratios,
// a seeded fault.Plan for the filesystem, and a schedule of process
// crashes. Run replays the scenario twice in spirit — once fault-free (the
// golden run) and once through the weather — and then verifies:
//
//   - No acked report is lost: every report the WAL acknowledged before a
//     crash is present in the reopened log (the no-acked-loss invariant).
//   - Metrics conserve: every ingest attempt lands in exactly one of
//     ingested/rejected, and every closed window in exactly one of
//     empty/dropped/processed/failed, in every life including crashed ones.
//   - Detection is unharmed: after any number of crashes and recoveries,
//     every window's flag set and F1 equal the golden run's, window for
//     window.
//
// Determinism is the point: the same Scenario (same seeds) replays the
// same fault sequence, the same crash points, and the same post-recovery
// state, so a chaos failure reproduces from a single integer. The runner
// keeps every fault decision on one goroutine — ingestion is
// single-threaded, the engine's workers touch no file, and checkpoints are
// taken inline through the daemon's step, which drains the engine first —
// which is what makes the injector's operation order (and therefore its
// RNG stream) stable. The engine runs the daemon's worker count: each
// fleet's windows still run in seq order on its lane.
package sim

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"itscs/internal/corrupt"
	"itscs/internal/fault"
	"itscs/internal/mcs"
	"itscs/internal/metrics"
	"itscs/internal/pipeline"
	"itscs/internal/reputation"
	"itscs/internal/trace"
	"itscs/internal/wal"
)

// Scenario is one seeded chaos run. The zero value plus a Seed is a valid
// fault-free scenario; fillDefaults supplies the shape.
type Scenario struct {
	// Name labels the scenario in failures and reports.
	Name string
	// Seed drives every random choice: trace generation, corruption, and
	// (unless Faults.Seed is set) the fault schedule.
	Seed int64

	// Participants, WindowSlots, HopSlots and Slots shape the stream
	// (defaults 10, 24, 8, WindowSlots+3·HopSlots). Slots−WindowSlots must
	// be a multiple of HopSlots so the final flushed window stays inside
	// the ground-truth matrices.
	Participants int
	WindowSlots  int
	HopSlots     int
	Slots        int

	// MissingRatio and FaultyRatio parameterize the corruption (defaults
	// 0.15 each).
	MissingRatio float64
	FaultyRatio  float64

	// Faults is the filesystem fault plan. Injected WAL-append failures
	// crash the process (a real daemon panics on EIO from its log);
	// injected checkpoint failures are absorbed, as the daemon absorbs
	// them. A zero plan injects nothing.
	Faults fault.Plan

	// CrashAt schedules process crashes before the i-th acked report, on
	// top of whatever crashes the fault plan provokes. Out-of-range
	// entries are ignored.
	CrashAt []int

	// CheckpointEvery writes a checkpoint after this many closed windows
	// (default 1). The checkpoint drains the engine first, so warm factors
	// land in it deterministically.
	CheckpointEvery uint64

	// Reputation wires a trust ledger into both runs (admission gate plus
	// window-fold observer, checkpointed and restored like shard state).
	// Run then verifies a fourth invariant: after any number of crashes
	// the stormy ledger is bit-identical to the golden run's.
	Reputation bool

	// Sync selects the stormy run's WAL fsync policy (the zero value is
	// SyncAlways). SyncInterval models the daemon's -fsync interval mode:
	// a process crash still loses nothing because close flushes, so every
	// invariant must hold under it too.
	Sync wal.SyncPolicy

	// Timeout bounds every wait on the result stream (default 2 minutes);
	// it is a liveness backstop, not a tuning knob.
	Timeout time.Duration
}

func (sc *Scenario) fillDefaults() {
	if sc.Participants <= 0 {
		sc.Participants = 10
	}
	if sc.WindowSlots <= 0 {
		sc.WindowSlots = 24
	}
	if sc.HopSlots <= 0 {
		sc.HopSlots = 8
	}
	if sc.Slots <= 0 {
		sc.Slots = sc.WindowSlots + 3*sc.HopSlots
	}
	if sc.MissingRatio == 0 {
		sc.MissingRatio = 0.15
	}
	if sc.FaultyRatio == 0 {
		sc.FaultyRatio = 0.15
	}
	if sc.Faults.Seed == 0 {
		sc.Faults.Seed = sc.Seed
	}
	if sc.CheckpointEvery == 0 {
		sc.CheckpointEvery = 1
	}
	if sc.Timeout <= 0 {
		sc.Timeout = 2 * time.Minute
	}
}

// WindowOutcome is one window's detection verdict, comparable across runs.
type WindowOutcome struct {
	Seq       int
	StartSlot int
	EndSlot   int
	Flags     []pipeline.CellFlag
	F1        float64
}

// Result is everything a chaos run produced, for reporting and for
// comparing two runs of the same scenario bit for bit.
type Result struct {
	Name string
	Seed int64

	// Golden and Recovered map window sequence numbers to outcomes for the
	// fault-free and the stormy run respectively.
	Golden    map[int]WindowOutcome
	Recovered map[int]WindowOutcome

	// Faults is the injected-fault log, in injection order.
	Faults []fault.Record

	// Lives counts engine incarnations (1 = never crashed); Crashes counts
	// scheduled plus fault-provoked crashes; CheckpointErrs counts
	// checkpoint steps absorbed after an injected failure.
	Lives          int
	Crashes        int
	CheckpointErrs int

	// Acked counts reports the WAL acknowledged across all lives.
	Acked uint64

	// Engine and WAL snapshot the final life's instrumentation.
	Engine pipeline.Stats
	WAL    wal.Stats

	// Reputation snapshots the stormy run's final trust ledger (nil unless
	// Scenario.Reputation).
	Reputation *reputation.LedgerStats
}

// DefaultScenarios is the standing chaos suite: one scenario per fault
// family, all derived from a single base seed.
func DefaultScenarios(seed int64) []Scenario {
	return []Scenario{
		{Name: "clean-crash", Seed: seed, Reputation: true, CrashAt: []int{97}},
		{Name: "double-crash", Seed: seed, Reputation: true, CrashAt: []int{60, 180}},
		{Name: "interval-fsync", Seed: seed, Reputation: true, Sync: wal.SyncInterval,
			CrashAt: []int{80, 200}},
		{Name: "torn-writes", Seed: seed, Reputation: true,
			Faults: fault.Plan{PWriteErr: 0.02, PTornWrite: 0.75, After: 25, MaxFaults: 4}},
		{Name: "sync-errors", Seed: seed, Reputation: true,
			Faults: fault.Plan{PSyncErr: 0.03, After: 25, MaxFaults: 4}},
		{Name: "checkpoint-chaos", Seed: seed, Reputation: true, CrashAt: []int{120},
			Faults: fault.Plan{PRenameErr: 0.3, PRemoveErr: 0.2, After: 10, MaxFaults: 6}},
		{Name: "mixed-weather", Seed: seed, Reputation: true, CrashAt: []int{140},
			Faults: fault.Plan{PWriteErr: 0.01, PTornWrite: 0.5, PSyncErr: 0.01,
				PRenameErr: 0.1, After: 30, MaxFaults: 5}},
	}
}

// Run executes one scenario in dir (which must be empty) and verifies the
// harness invariants. It returns the Result alongside any invariant
// violations, which are joined into the error.
func Run(dir string, sc Scenario) (*Result, error) {
	sc.fillDefaults()
	if (sc.Slots-sc.WindowSlots)%sc.HopSlots != 0 {
		return nil, fmt.Errorf("sim: slots %d not aligned to window %d + k·hop %d",
			sc.Slots, sc.WindowSlots, sc.HopSlots)
	}
	reports, truth, err := buildStream(sc)
	if err != nil {
		return nil, err
	}
	res := &Result{Name: sc.Name, Seed: sc.Seed}
	var goldenLedger []byte
	res.Golden, goldenLedger, err = goldenRun(sc, reports, truth)
	if err != nil {
		return nil, fmt.Errorf("sim: golden run: %w", err)
	}
	r := &runner{
		sc:        sc,
		dir:       dir,
		reports:   reports,
		truth:     truth,
		in:        fault.NewInjector(sc.Faults),
		recovered: map[int]WindowOutcome{},
	}
	r.fsys = fault.Inject(fault.OS(), r.in)
	r.walOpt = wal.DefaultOptions()
	r.walOpt.FS = r.fsys
	r.walOpt.Sync = sc.Sync
	if err := r.run(); err != nil {
		return nil, fmt.Errorf("sim: %s: %w", sc.Name, err)
	}
	res.Recovered = r.recovered
	res.Faults = r.in.Faults()
	res.Lives = r.lives
	res.Crashes = r.crashes
	res.CheckpointErrs = r.ckptErrs
	res.Acked = r.acked
	res.Engine = r.finalEngine
	res.WAL = r.finalWAL
	res.Reputation = r.finalLedgerStats

	violations := append(r.violations, verifyWindows(res.Golden, res.Recovered)...)
	if sc.Reputation && !bytes.Equal(goldenLedger, r.finalLedger) {
		violations = append(violations, fmt.Sprintf(
			"reputation ledger diverges from golden after recovery: %d vs %d bytes",
			len(r.finalLedger), len(goldenLedger)))
	}
	if len(violations) > 0 {
		return res, fmt.Errorf("sim: %s: invariants violated:\n  %s",
			sc.Name, strings.Join(violations, "\n  "))
	}
	return res, nil
}

// buildStream generates the seeded fleet, corrupts it, and flattens the
// observed cells into slot-ordered reports as the transport would deliver
// them.
func buildStream(sc Scenario) ([]mcs.Report, *corrupt.Result, error) {
	tcfg := trace.DefaultConfig()
	tcfg.Participants = sc.Participants
	tcfg.Slots = sc.Slots
	tcfg.Seed = sc.Seed
	fleet, err := trace.Generate(tcfg)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: generate fleet: %w", err)
	}
	plan := corrupt.DefaultPlan()
	plan.MissingRatio = sc.MissingRatio
	plan.FaultyRatio = sc.FaultyRatio
	plan.Seed = sc.Seed
	truth, err := corrupt.Apply(plan, fleet.X, fleet.Y)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: corrupt fleet: %w", err)
	}
	var reports []mcs.Report
	for s := 0; s < sc.Slots; s++ {
		for i := 0; i < sc.Participants; i++ {
			if truth.Existence.At(i, s) == 0 {
				continue
			}
			reports = append(reports, mcs.Report{
				Fleet:       "sim",
				Participant: i,
				Slot:        s,
				X:           truth.SX.At(i, s),
				Y:           truth.SY.At(i, s),
				VX:          fleet.VX.At(i, s),
				VY:          fleet.VY.At(i, s),
			})
		}
	}
	return reports, truth, nil
}

// engineConfig shapes the streaming engine for a scenario at the daemon's
// worker count. A roomy queue drops no window, which with per-fleet lanes
// is what makes warm-start chains — and therefore results — deterministic.
func engineConfig(sc Scenario, log pipeline.ReportLog) pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.Participants = sc.Participants
	cfg.WindowSlots = sc.WindowSlots
	cfg.HopSlots = sc.HopSlots
	cfg.QueueDepth = 64
	cfg.Log = log
	return cfg
}

// goldenRun streams every report through an undamaged, log-free engine and
// records each window's outcome: the reference the stormy run must match.
// With Scenario.Reputation it also folds every window into a fresh trust
// ledger and returns its serialized form, the reference the stormy ledger
// must match bit for bit.
func goldenRun(sc Scenario, reports []mcs.Report, truth *corrupt.Result) (map[int]WindowOutcome, []byte, error) {
	cfg := engineConfig(sc, nil)
	var ledger *reputation.Ledger
	if sc.Reputation {
		var err error
		if ledger, err = reputation.New(reputation.DefaultConfig()); err != nil {
			return nil, nil, err
		}
		cfg.Gate = ledger
		cfg.OnResult = ledger.Fold
	}
	engine, err := pipeline.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	results, cancel := engine.Subscribe(256)
	defer cancel()
	for i, r := range reports {
		if err := engine.Ingest(r); err != nil {
			return nil, nil, fmt.Errorf("ingest report %d: %w", i, err)
		}
	}
	engine.Close()
	golden := map[int]WindowOutcome{}
	deadline := time.After(sc.Timeout)
	for {
		select {
		case res, ok := <-results:
			if !ok {
				if len(golden) == 0 {
					return nil, nil, errors.New("produced no windows")
				}
				var blob []byte
				if ledger != nil {
					if blob, err = ledger.MarshalBinary(); err != nil {
						return nil, nil, err
					}
				}
				return golden, blob, nil
			}
			out, err := outcome(res, truth)
			if err != nil {
				return nil, nil, err
			}
			golden[out.Seq] = out
		case <-deadline:
			return nil, nil, errors.New("timed out collecting windows")
		}
	}
}

// outcome scores one window result against the ground truth.
func outcome(res *pipeline.WindowResult, truth *corrupt.Result) (WindowOutcome, error) {
	n, slots := truth.Faulty.Dims()
	if res.EndSlot > slots {
		return WindowOutcome{}, fmt.Errorf("window [%d,%d) exceeds ground truth width %d",
			res.StartSlot, res.EndSlot, slots)
	}
	f, err := truth.Faulty.Slice(0, n, res.StartSlot, res.EndSlot)
	if err != nil {
		return WindowOutcome{}, err
	}
	ex, err := truth.Existence.Slice(0, n, res.StartSlot, res.EndSlot)
	if err != nil {
		return WindowOutcome{}, err
	}
	conf, err := metrics.Compare(res.Output.Detection, f, ex)
	if err != nil {
		return WindowOutcome{}, err
	}
	return WindowOutcome{
		Seq:       res.Seq,
		StartSlot: res.StartSlot,
		EndSlot:   res.EndSlot,
		Flags:     res.Flags,
		F1:        conf.F1(),
	}, nil
}

// verifyWindows checks the per-window F1/flag equality invariant.
func verifyWindows(golden, recovered map[int]WindowOutcome) []string {
	var v []string
	if len(recovered) != len(golden) {
		v = append(v, fmt.Sprintf("recovered %d windows, golden %d", len(recovered), len(golden)))
	}
	for seq, g := range golden {
		got, ok := recovered[seq]
		if !ok {
			v = append(v, fmt.Sprintf("window seq %d missing after recovery", seq))
			continue
		}
		if got.StartSlot != g.StartSlot || got.EndSlot != g.EndSlot {
			v = append(v, fmt.Sprintf("window seq %d spans [%d,%d), golden [%d,%d)",
				seq, got.StartSlot, got.EndSlot, g.StartSlot, g.EndSlot))
			continue
		}
		if !flagsEqual(got.Flags, g.Flags) {
			v = append(v, fmt.Sprintf("window seq %d flags diverge: %d flagged vs golden %d",
				seq, len(got.Flags), len(g.Flags)))
		}
		if math.Float64bits(got.F1) != math.Float64bits(g.F1) {
			v = append(v, fmt.Sprintf("window seq %d F1 %.6f != golden %.6f", seq, got.F1, g.F1))
		}
	}
	return v
}

func flagsEqual(a, b []pipeline.CellFlag) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
