package sim

import (
	"fmt"
	"math"

	"itscs/internal/corrupt"
	"itscs/internal/mcs"
	"itscs/internal/metrics"
	"itscs/internal/pipeline"
)

// FleetWorkload is one fleet's deterministic synthetic stream: the
// corrupted reports in transport delivery order plus the ground truth to
// score detections against. Cluster tests build one per fleet (distinct
// seeds) and stream them through routers and backends, then compare
// per-window outcomes to a single-node golden run with VerifyWindows.
type FleetWorkload struct {
	Fleet   string
	Reports []mcs.Report
	Truth   *corrupt.Result
}

// BuildWorkload generates the scenario's fleet under the given name. The
// same scenario and name always produce the same bytes.
func BuildWorkload(fleet string, sc Scenario) (*FleetWorkload, error) {
	sc.fillDefaults()
	if (sc.Slots-sc.WindowSlots)%sc.HopSlots != 0 {
		return nil, fmt.Errorf("sim: slots %d not aligned to window %d + k·hop %d",
			sc.Slots, sc.WindowSlots, sc.HopSlots)
	}
	reports, truth, err := buildStream(sc)
	if err != nil {
		return nil, err
	}
	for i := range reports {
		reports[i].Fleet = fleet
	}
	return &FleetWorkload{Fleet: fleet, Reports: reports, Truth: truth}, nil
}

// Outcome scores one window result against the workload's ground truth.
func Outcome(res *pipeline.WindowResult, truth *corrupt.Result) (WindowOutcome, error) {
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

// VerifyWindows checks two runs of the same workload window for window —
// same spans, bitwise-equal flags and F1 — returning human-readable
// violations (empty means identical).
func VerifyWindows(golden, recovered map[int]WindowOutcome) []string {
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

// GoldenRun streams the workload through a fresh single-node engine at the
// daemon's worker count with a deep queue, so no window is dropped and the
// warm-start chain, and therefore every result, is reproducible. It returns
// every window's outcome keyed by sequence number.
func GoldenRun(w *FleetWorkload, sc Scenario) (map[int]WindowOutcome, error) {
	sc.fillDefaults()
	golden, _, err := goldenRun(sc, w.Reports, w.Truth)
	return golden, err
}

// EngineConfig exposes the engine shape GoldenRun uses, so a cluster test
// can give its backends the exact same configuration.
func EngineConfig(sc Scenario) pipeline.Config {
	sc.fillDefaults()
	return engineConfig(sc, nil)
}
