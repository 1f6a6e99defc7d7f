package main

import (
	"flag"
	"testing"

	"itscs/internal/cluster"
	"itscs/internal/mcs"
	"itscs/internal/obs"
	"itscs/internal/obs/obstest"
	"itscs/internal/pipeline"
	"itscs/internal/reputation"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden metric-name list")

// TestMetricsDrift is the CI gate against silent metric renames and drops
// on the router's exposition, the mirror of itscs-serve's gate: a payload
// with every map populated renders every series the binary can export, and
// the sorted fingerprint must match testdata/metric_names.txt. Intentional
// changes update the golden with
//
//	go test ./cmd/itscs-router/ -run TestMetricsDrift -update
//
// and the golden diff is reviewed like any other contract change.
func TestMetricsDrift(t *testing.T) {
	hist := pipeline.HistogramSnapshot{Count: 1, SumMS: 5, Buckets: map[int64]uint64{-1: 1}}
	payload := metricsPayload{
		Forwarder: cluster.ForwarderStats{
			Backends: map[string]mcs.ClientStats{"b0": {}},
		},
		Backends: []cluster.BackendStatus{
			{Backend: cluster.Backend{Name: "b0"}, Ready: true},
		},
		Cluster: cluster.ClusterMetrics{
			Backends: []cluster.BackendMetrics{{Backend: "b0"}},
			Aggregate: pipeline.Stats{
				PhaseLatency:   map[string]pipeline.HistogramSnapshot{"run": hist},
				AgeAtClose:     hist,
				IngestToResult: hist,
			},
		},
		Reputation: cluster.ClusterReputation{
			Stats: reputation.LedgerStats{
				States:      map[string]int{},
				Transitions: []reputation.TransitionCount{{From: "clean", To: "probation", Count: 1}},
			},
		},
	}
	body := renderProm(payload, obs.NewRuntime())
	if err := obs.LintExposition(body); err != nil {
		t.Fatalf("exposition failed lint: %v", err)
	}
	if err := obstest.CheckGoldenSeries("testdata/metric_names.txt", body, *updateGolden); err != nil {
		t.Fatal(err)
	}
}
