package cluster_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"itscs/internal/cluster"
	"itscs/internal/cluster/clustertest"
	"itscs/internal/mcs"
	"itscs/internal/pipeline"
	"itscs/internal/sim"
)

// testConfig is a small deterministic engine shape shared by the backends.
func testConfig() pipeline.Config {
	return sim.EngineConfig(sim.Scenario{Seed: 1})
}

func startBackends(t *testing.T, n int) []*clustertest.Backend {
	t.Helper()
	backends := make([]*clustertest.Backend, n)
	for i := range backends {
		b, err := clustertest.Start(clustertest.Options{Config: testConfig()})
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = b
		t.Cleanup(func() { _ = b.Close() })
	}
	return backends
}

func specs(backends []*clustertest.Backend) []cluster.Backend {
	out := make([]cluster.Backend, len(backends))
	for i, b := range backends {
		out[i] = b.Spec()
	}
	return out
}

// TestBackendRefusesInvalidIdentityAtDoor sends a report with an empty
// fleet straight to a backend's TCP door, bypassing the router: the
// backend is the daemon's node, so its identity gate nacks the report and
// counts the refusal under /metrics.
func TestBackendRefusesInvalidIdentityAtDoor(t *testing.T) {
	b := startBackends(t, 1)[0]
	acked, err := mcs.SendReports(context.Background(), b.IngestAddr(),
		[]mcs.Report{{Fleet: "", Participant: 0, Slot: 0, X: 1, Y: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if acked != 0 {
		t.Fatalf("acked %d, want the empty-fleet report refused with an err ack", acked)
	}
	resp, err := http.Get("http://" + b.HTTPAddr() + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		InvalidIdentity uint64 `json:"reports_invalid_identity"`
		Ingested        uint64 `json:"ingested"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.InvalidIdentity != 1 || m.Ingested != 0 {
		t.Fatalf("metrics reports_invalid_identity %d ingested %d, want 1 and 0", m.InvalidIdentity, m.Ingested)
	}
}

// TestProberLifecycle drives admit → eject → readmit through /readyz
// transitions with explicit sweeps, no wall-clock waits.
func TestProberLifecycle(t *testing.T) {
	backends := startBackends(t, 2)
	backends[1].SetReady(false)

	var changes []string
	p := cluster.NewProber(specs(backends), cluster.ProberOptions{
		OnChange: func(b cluster.Backend, ready bool) {
			changes = append(changes, fmt.Sprintf("%s=%v", b.Name, ready))
		},
	})
	defer p.Close()
	ctx := context.Background()

	p.Sweep(ctx)
	if !p.Ready(backends[0].Spec().Name) || p.Ready(backends[1].Spec().Name) {
		t.Fatalf("after first sweep: ready=%v,%v, want true,false",
			p.Ready(backends[0].Spec().Name), p.Ready(backends[1].Spec().Name))
	}
	if p.ReadyCount() != 1 {
		t.Fatalf("ready count %d, want 1", p.ReadyCount())
	}

	// The unready backend finishes "recovery" and is admitted next sweep.
	backends[1].SetReady(true)
	p.Sweep(ctx)
	if p.ReadyCount() != 2 {
		t.Fatalf("ready count %d after recovery, want 2", p.ReadyCount())
	}

	// Kill backend 0: probes fail, the gate closes.
	if err := backends[0].Kill(); err != nil {
		t.Fatal(err)
	}
	p.Sweep(ctx)
	if p.Ready(backends[0].Spec().Name) {
		t.Fatal("killed backend still admitted after a sweep")
	}

	snap := p.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d entries", len(snap))
	}
	if snap[0].Ejections != 1 || snap[0].LastErr == "" {
		t.Errorf("killed backend status = %+v, want 1 ejection and an error", snap[0])
	}
	if snap[1].Readmissions != 0 {
		// First admission after StartUnready is not a readmission.
		t.Errorf("backend 1 readmissions = %d, want 0", snap[1].Readmissions)
	}
	want := []string{
		backends[0].Spec().Name + "=true",
		backends[1].Spec().Name + "=true",
		backends[0].Spec().Name + "=false",
	}
	if len(changes) != len(want) {
		t.Fatalf("changes = %v, want %v", changes, want)
	}
	for i := range want {
		if changes[i] != want[i] {
			t.Fatalf("changes = %v, want %v", changes, want)
		}
	}
}

// TestForwarderRoutesByFleet checks the data plane: every report lands on
// exactly the ring-designated backend, and each fleet lives whole on one.
func TestForwarderRoutesByFleet(t *testing.T) {
	backends := startBackends(t, 3)
	ring := cluster.NewRing(64)
	fwd := cluster.NewForwarder(specs(backends), ring, cluster.ForwarderOptions{})
	defer fwd.Close()

	const fleets, perFleet = 12, 5
	for fi := 0; fi < fleets; fi++ {
		for s := 0; s < perFleet; s++ {
			r := mcs.Report{Fleet: fmt.Sprintf("fleet-%d", fi), Participant: 0, Slot: s, X: 1, Y: 1}
			if err := fwd.Ingest(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := fwd.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	st := fwd.Stats()
	if st.Forwarded != fleets*perFleet || st.Unroutable != 0 {
		t.Fatalf("stats = %+v, want %d forwarded", st, fleets*perFleet)
	}
	total := uint64(0)
	for fi := 0; fi < fleets; fi++ {
		fleet := fmt.Sprintf("fleet-%d", fi)
		owner, ok := fwd.Owner(fleet)
		if !ok {
			t.Fatalf("no owner for %s", fleet)
		}
		hosts := 0
		for _, b := range backends {
			for _, got := range b.Engine().Fleets() {
				if got == fleet {
					hosts++
					if b.Spec().Name != owner {
						t.Errorf("fleet %s materialized on %s, ring owner %s",
							fleet, b.Spec().Name, owner)
					}
				}
			}
		}
		if hosts != 1 {
			t.Errorf("fleet %s lives on %d backends, want exactly 1", fleet, hosts)
		}
	}
	for _, b := range backends {
		total += b.Engine().Stats().Ingested
	}
	if total != fleets*perFleet {
		t.Fatalf("backends ingested %d reports, want %d", total, fleets*perFleet)
	}
	// Non-finite reports are refused at the router's door, counted.
	nan := mcs.Report{Fleet: "fleet-0", Participant: 0, Slot: 99, X: nanValue()}
	if err := fwd.Ingest(nan); err == nil {
		t.Fatal("non-finite report accepted")
	}
	if got := fwd.Stats().NonFinite; got != 1 {
		t.Fatalf("non_finite = %d, want 1", got)
	}
}

// TestForwarderUnroutableCounted: with the owner's gate closed, reports
// for its fleets are refused with ErrNoBackend and counted — never
// silently dropped, never remapped to another backend.
func TestForwarderUnroutableCounted(t *testing.T) {
	backends := startBackends(t, 2)
	ring := cluster.NewRing(64)
	ejected := map[string]bool{}
	fwd := cluster.NewForwarder(specs(backends), ring, cluster.ForwarderOptions{
		Ready: func(name string) bool { return !ejected[name] },
	})
	defer fwd.Close()

	owner, _ := fwd.Owner("doomed")
	ejected[owner] = true

	for s := 0; s < 4; s++ {
		err := fwd.Ingest(mcs.Report{Fleet: "doomed", Participant: 0, Slot: s, X: 1, Y: 1})
		if !errors.Is(err, cluster.ErrNoBackend) {
			t.Fatalf("ingest with ejected owner = %v, want ErrNoBackend", err)
		}
	}
	st := fwd.Stats()
	if st.Unroutable != 4 || st.Forwarded != 0 {
		t.Fatalf("stats = %+v, want 4 unroutable / 0 forwarded", st)
	}
	for _, b := range backends {
		if n := b.Engine().Stats().Ingested; n != 0 {
			t.Fatalf("backend %s ingested %d reports of an unroutable fleet", b.Spec().Name, n)
		}
	}

	// Gate reopens: the same fleet flows again, to the same owner.
	ejected[owner] = false
	if err := fwd.Ingest(mcs.Report{Fleet: "doomed", Participant: 0, Slot: 10, X: 1, Y: 1}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := fwd.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	again, _ := fwd.Owner("doomed")
	if again != owner {
		t.Fatalf("owner moved %s -> %s across an eject/readmit", owner, again)
	}
}

// TestQueryPlane exercises the scatter-gather reads: owner-routed result
// proxying with status passthrough, fleet-list union, metrics aggregation.
func TestQueryPlane(t *testing.T) {
	backends := startBackends(t, 3)
	ring := cluster.NewRing(64)
	// Deep enough that no backend's send buffer can overflow (drop-oldest)
	// even if placement lands every fleet on one backend.
	fwd := cluster.NewForwarder(specs(backends), ring, cluster.ForwarderOptions{
		Client: mcs.ClientOptions{QueueDepth: 8192},
	})
	defer fwd.Close()

	sc := sim.Scenario{Seed: 7}
	fleets := []string{"alpha", "beta", "gamma", "delta"}
	totalReports := 0
	for _, fleet := range fleets {
		w, err := sim.BuildWorkload(fleet, sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range w.Reports {
			if err := fwd.Ingest(r); err != nil {
				t.Fatal(err)
			}
		}
		totalReports += len(w.Reports)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := fwd.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// Drain every backend so each fleet has completed windows.
	for _, b := range backends {
		for _, fleet := range b.Engine().Fleets() {
			if err := b.Engine().Flush(fleet); err != nil {
				t.Fatal(err)
			}
		}
	}

	q := cluster.NewQuery(specs(backends), ring, nil, nil)

	list := q.Fleets(ctx)
	if len(list.Errors) != 0 {
		t.Fatalf("fleet list errors: %v", list.Errors)
	}
	if len(list.Fleets) != len(fleets) {
		t.Fatalf("fleet list = %v, want the %d streamed fleets", list.Fleets, len(fleets))
	}

	for _, fleet := range fleets {
		deadline := time.Now().Add(time.Minute)
		for {
			resp, err := q.Result(ctx, fleet)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Status == 200 {
				owner, _ := fwd.Owner(fleet)
				if resp.Backend != owner {
					t.Fatalf("fleet %s answered by %s, owner is %s", fleet, resp.Backend, owner)
				}
				break
			}
			if resp.Status != 204 {
				t.Fatalf("result status %d for %s", resp.Status, fleet)
			}
			if time.Now().After(deadline) {
				t.Fatalf("fleet %s never produced a window result", fleet)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if resp, err := q.Result(ctx, "no-such-fleet"); err != nil || resp.Status != 404 {
		t.Fatalf("unknown fleet proxied as %v/%v, want 404", resp, err)
	}

	// A window the flushes dispatched may still be between its run
	// histogram observation and its WindowsProcessed count; the two agree
	// once every engine is idle.
	waitQuiet(t, backends)
	cm := q.Metrics(ctx)
	if len(cm.Backends) != 3 {
		t.Fatalf("metrics cover %d backends", len(cm.Backends))
	}
	for _, bm := range cm.Backends {
		if bm.Err != "" {
			t.Fatalf("backend %s metrics error: %s", bm.Backend, bm.Err)
		}
	}
	if cm.Aggregate.Ingested != uint64(totalReports) {
		t.Fatalf("aggregate ingested %d, want %d", cm.Aggregate.Ingested, totalReports)
	}
	if cm.Aggregate.Fleets != len(fleets) {
		t.Fatalf("aggregate fleets %d, want %d", cm.Aggregate.Fleets, len(fleets))
	}
	run := cm.Aggregate.PhaseLatency["run"]
	if run.Count != cm.Aggregate.WindowsProcessed || run.Count == 0 {
		t.Fatalf("aggregate run histogram count %d vs processed %d",
			run.Count, cm.Aggregate.WindowsProcessed)
	}
}

func nanValue() float64 {
	var zero float64
	return zero / zero
}
