// Package itscs implements I(TS,CS), a joint faulty-data detection and
// missing-value reconstruction framework for mobile-crowdsensing location
// data, reproducing Wang et al., "I(TS,CS): Detecting Faulty Location Data
// in Mobile Crowdsensing" (IEEE ICDCS 2018) — and grows it into a
// production-shaped streaming system around the algorithm.
//
// # Problem
//
// A location-focused mobile crowdsensing system collects per-participant
// coordinates in fixed time slots. The resulting coordinate matrices suffer
// from missing values (participants go dark) and faulty data (sensor
// glitches, transmission errors, malicious uploads). Because location data
// is unique to each participant, faults cannot be voted away by comparing
// redundant observations of the same quantity: detection has to come from
// the structure of the data itself.
//
// # Approach
//
// I(TS,CS) iterates a DETECT-and-CORRECT loop:
//
//   - DETECT: a time-series local-median outlier detector with a
//     velocity-adaptive tolerance flags everything suspicious, driving the
//     false-negative rate to near zero at the cost of false positives.
//   - CORRECT: the flagged and missing cells are re-estimated by low-rank
//     matrix completion (compressive sensing) over the trusted cells,
//     strengthened by a velocity-informed temporal-stability term.
//   - CHECK: flags are reconciled against the reconstruction — cleared
//     where the observation now agrees, raised where it strongly disagrees
//     — and the loop repeats until the flag set stabilizes.
//
// The alternation sidesteps the classic precision/recall trade-off: the
// detector can over-flag freely because the reconstruction wins back the
// misjudged cells.
//
// # Usage
//
//	ds := itscs.Dataset{X: xs, Y: ys, VX: vxs, VY: vys} // NaN marks missing
//	res, err := itscs.Run(ds)
//	if err != nil { ... }
//	// res.Faulty[i][j] — detection verdicts
//	// res.X[i][j], res.Y[i][j] — repaired trajectories
//
// RunScalar runs that very loop over a single matrix of generic sensory
// data (temperature, pollution, …) — the paper's claim that the framework
// extends beyond location data. There is one loop in the code: it iterates
// over a list of axes, two (X and Y) for Run and one for RunScalar.
//
// The itscs/synthetic subpackage generates urban taxi-fleet workloads with
// controlled corruption for testing and benchmarking.
//
// # Architecture
//
// This root package is the pure algorithm; the repository layers a
// deployable system around it (see DESIGN.md for the full rationale):
//
//   - internal/core runs the DETECT→CORRECT→CHECK loop over one sliding
//     window, with warm-started factor chains between windows; one loop
//     function serves both the location (X, Y) and the scalar (S) entry
//     points. internal/mat,
//     internal/tsdetect, internal/csrecon and internal/stat are its numeric
//     kernels.
//   - internal/pipeline shards fleets onto a bounded worker pool and turns
//     a live report stream (internal/mcs line protocol) into per-window
//     results with conservation-checked counters.
//   - internal/wal makes ingest durable: a segmented write-ahead log with
//     pluggable fsync policy, versioned checkpoints and crash recovery by
//     restore-plus-replay.
//   - internal/reputation folds each window's verdict matrix into a
//     per-participant trust ledger with exponentially decayed evidence,
//     Wilson confidence bounds and a hysteresis quarantine state machine.
//     The paper brackets reputation out because location readings are not
//     multiply observed; the ledger builds it back on top of the per-window
//     verdicts instead, scoring participants by how often their own cells
//     are flagged, missing, flip under CHECK, or sit far from the
//     reconstruction. Quarantine tags — it never drops a report, because
//     removing rows would change the matrices the detector runs on.
//   - internal/cluster + cmd/itscs-router shard a deployment by fleet over
//     a consistent-hash ring with scatter-gather reads, keeping results
//     bit-identical to single-node runs.
//   - internal/obs (logging, metrics, tracing) and internal/sim (the
//     deterministic fault-injection harness) make the whole stack
//     observable and crash-testable; cmd/itscs-serve is the single-node
//     daemon binding all of the above.
package itscs
