package main

import (
	"flag"
	"testing"

	"itscs/internal/metrics"
	"itscs/internal/node"
	"itscs/internal/obs"
	"itscs/internal/obs/obstest"
	"itscs/internal/pipeline"
	"itscs/internal/reputation"
	"itscs/internal/wal"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files")

// TestMetricsDrift is the CI gate against silent metric renames and drops:
// it renders the exposition from a payload with every optional block and
// map populated — so every series the binary can export appears — and
// compares the sorted series fingerprint against testdata/metric_names.txt.
// An intentional metrics change updates the golden with
//
//	go test ./cmd/itscs-serve/ -run TestMetricsDrift -update
//
// and the golden diff is reviewed like any other contract change.
func TestMetricsDrift(t *testing.T) {
	hist := pipeline.HistogramSnapshot{Count: 1, SumMS: 5, Buckets: map[int64]uint64{-1: 1}}
	payload := node.Metrics{
		Stats: pipeline.Stats{
			WindowsDroppedByFleet: map[string]uint64{"cab": 1},
			PhaseLatency:          map[string]pipeline.HistogramSnapshot{"run": hist},
			AgeAtClose:            hist,
			IngestToResult:        hist,
			Freshness: map[string]pipeline.FleetFreshness{
				"cab": {AgeAtClose: hist, IngestToResult: hist},
			},
		},
		WAL:         &wal.Stats{FsyncLatency: metrics.HistogramSnapshot{Count: 1, SumMS: 1, Buckets: map[int64]uint64{-1: 1}}},
		Checkpoints: &node.CheckpointStats{Written: 1},
		Recovery:    &node.Recovery{},
		Reputation: &reputation.LedgerStats{
			States:      map[string]int{},
			Transitions: []reputation.TransitionCount{{From: "clean", To: "probation", Count: 1}},
		},
	}
	body := node.RenderProm(payload, obs.NewRuntime())
	if err := obs.LintExposition(body); err != nil {
		t.Fatalf("exposition failed lint: %v", err)
	}
	if err := obstest.CheckGoldenSeries("testdata/metric_names.txt", body, *updateGolden); err != nil {
		t.Fatal(err)
	}
}
