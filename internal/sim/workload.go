package sim

import (
	"fmt"

	"itscs/internal/corrupt"
	"itscs/internal/mcs"
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
	return outcome(res, truth)
}

// VerifyWindows checks two runs of the same workload window for window —
// same spans, bitwise-equal flags and F1 — returning human-readable
// violations (empty means identical).
func VerifyWindows(golden, got map[int]WindowOutcome) []string {
	return verifyWindows(golden, got)
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
