package main

import (
	"bytes"
	"context"
	"net/http"
	"testing"
	"time"

	"itscs/internal/corrupt"
	"itscs/internal/mcs"
	"itscs/internal/node"
	"itscs/internal/pipeline"
	"itscs/internal/reputation"
	"itscs/internal/trace"
	"itscs/internal/wal"
)

// faultyFleetReports generates a realistic fleet trace and concentrates
// kilometers-scale faults in the tail participants (rows faultyFrom and
// up, 80 % of their cells) — the per-device fault model the reputation
// ledger is built to catch.
func faultyFleetReports(t *testing.T, fleet string, n, slots, faultyFrom int) []mcs.Report {
	t.Helper()
	tcfg := trace.DefaultConfig()
	tcfg.Participants = n
	tcfg.Slots = slots
	gen, err := trace.Generate(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := corrupt.DefaultParticipantPlan()
	plan.Rates = map[int]float64{}
	for i := faultyFrom; i < n; i++ {
		plan.Rates[i] = 0.8
	}
	res, err := corrupt.ApplyParticipants(plan, gen.X, gen.Y)
	if err != nil {
		t.Fatal(err)
	}
	var out []mcs.Report
	for s := 0; s < slots; s++ {
		for i := 0; i < n; i++ {
			if res.Existence.At(i, s) == 0 {
				continue
			}
			out = append(out, mcs.Report{
				Fleet: fleet, Participant: i, Slot: s,
				X: res.SX.At(i, s), Y: res.SY.At(i, s),
				VX: gen.VX.At(i, s), VY: gen.VY.At(i, s),
			})
		}
	}
	return out
}

// repDaemonConfig returns a small pipeline config shared by the tests here.
func repDaemonConfig(n, w, h int) pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.Participants = n
	cfg.WindowSlots = w
	cfg.HopSlots = h
	cfg.Workers = 1
	return cfg
}

// waitWindows blocks until the engine has processed at least want windows.
func waitWindows(t *testing.T, e *pipeline.Engine, want uint64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for e.Stats().WindowsProcessed < want {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d windows processed", e.Stats().WindowsProcessed, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReputationEndpointsE2E streams a fleet with persistently faulty
// participants through the TCP door and reads the trust ledger back over
// every /reputation route. The stream is uploaded hop by hop, each closed
// window folded before the next hop arrives, and runs two hops past the
// window that quarantines the faulty rows, so their later reports reach
// the gate while they are quarantined.
func TestReputationEndpointsE2E(t *testing.T) {
	const (
		n, w, h    = 24, 60, 20
		slots      = 60 + 20*10
		faultyFrom = 22
	)
	rep := reputation.DefaultConfig()
	d2, err := node.New(node.Config{
		Engine:     repDaemonConfig(n, w, h),
		IngestAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", IdleTimeout: time.Minute, Reputation: &rep,
	})
	if err != nil {
		t.Fatal(err)
	}
	d2.Serve(d2.Handler())
	waitReady(t, d2)
	defer func() {
		if err := d2.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	reports := faultyFleetReports(t, "cab", n, slots, faultyFrom)
	// Hop k holds slots [w+(k-1)h, w+kh); its first report closes window
	// k-1. Hop 0 is the first window's span, which closes nothing.
	for k, lo := 0, 0; lo < len(reports); k++ {
		end := w + k*h
		hi := lo
		for hi < len(reports) && reports[hi].Slot < end {
			hi++
		}
		acked, err := mcs.SendReports(context.Background(), d2.IngestAddr().String(), reports[lo:hi])
		if err != nil || acked != hi-lo {
			t.Fatalf("hop %d: acked %d of %d, err %v", k, acked, hi-lo, err)
		}
		waitWindows(t, d2.Engine(), uint64(k))
		lo = hi
	}

	base := "http://" + d2.HTTPAddr().String()
	var snap reputation.Snapshot
	if status, err := getJSON(base+"/reputation", &snap); err != nil || status != http.StatusOK {
		t.Fatalf("/reputation: status %d err %v", status, err)
	}
	if len(snap.Fleets) != 1 || snap.Fleets[0].Fleet != "cab" {
		t.Fatalf("snapshot fleets = %+v", snap.Fleets)
	}
	if snap.Stats.Folded == 0 {
		t.Fatal("no windows folded into the ledger")
	}

	var fs reputation.FleetSnapshot
	if status, err := getJSON(base+"/reputation/cab", &fs); err != nil || status != http.StatusOK {
		t.Fatalf("/reputation/cab: status %d err %v", status, err)
	}
	if len(fs.Participants) != n {
		t.Fatalf("fleet snapshot has %d participants, want %d", len(fs.Participants), n)
	}
	// The consequential split: injected-faulty rows end quarantined, and no
	// clean row is ever quarantined (suspect is an advisory state a clean
	// row may brush against while evidence mass is still small).
	for _, ps := range fs.Participants {
		if ps.Participant >= faultyFrom {
			if ps.State != "quarantined" {
				t.Errorf("faulty participant %d not quarantined: %s (score %.3f lower %.3f)",
					ps.Participant, ps.State, ps.Score, ps.LowerBound)
			}
		} else if ps.State == "quarantined" || ps.State == "probation" {
			t.Errorf("clean participant %d reached %s (score %.3f)",
				ps.Participant, ps.State, ps.Score)
		}
	}

	var ps reputation.ParticipantSnapshot
	if status, err := getJSON(base+"/reputation/cab/23", &ps); err != nil || status != http.StatusOK {
		t.Fatalf("/reputation/cab/23: status %d err %v", status, err)
	}
	if ps.Participant != 23 || ps.Windows == 0 {
		t.Fatalf("participant snapshot = %+v", ps)
	}

	// Error shapes: unknown fleet, unknown participant, malformed id.
	var errBody struct {
		Error string `json:"error"`
	}
	if status, _ := getJSON(base+"/reputation/none", &errBody); status != http.StatusNotFound {
		t.Errorf("unknown fleet: status %d", status)
	}
	if status, _ := getJSON(base+"/reputation/cab/99", &errBody); status != http.StatusNotFound {
		t.Errorf("unknown participant: status %d", status)
	}
	if status, _ := getJSON(base+"/reputation/cab/xyz", &errBody); status != http.StatusBadRequest {
		t.Errorf("malformed participant id: status %d", status)
	}

	// The gate conservation law holds on the live counters.
	st := d2.Engine().Stats()
	if st.AdmittedClean+st.TaggedQuarantined+st.TaggedProbation != st.Ingested {
		t.Errorf("gate counters do not conserve: clean %d + quarantined %d + probation %d != ingested %d",
			st.AdmittedClean, st.TaggedQuarantined, st.TaggedProbation, st.Ingested)
	}
	// With faulty rows quarantined mid-stream, some reports must have been
	// tagged rather than dropped.
	if st.TaggedQuarantined == 0 {
		t.Error("no report was ever tagged quarantined despite quarantined participants")
	}
}

// TestReputationDisabled pins the -reputation=false shape: every
// /reputation route 404s with an explanatory error.
func TestReputationDisabled(t *testing.T) {
	d := bootDaemon(t, node.Config{})
	base := "http://" + d.HTTPAddr().String()
	var errBody struct {
		Error string `json:"error"`
	}
	for _, path := range []string{"/reputation", "/reputation/cab", "/reputation/cab/0"} {
		if status, err := getJSON(base+path, &errBody); err != nil || status != http.StatusNotFound {
			t.Errorf("%s with ledger disabled: status %d err %v", path, status, err)
		}
		if errBody.Error == "" {
			t.Errorf("%s 404 carried no error message", path)
		}
	}
}

// TestInvalidIdentityRefusedAtDoor sends reports without a routable
// identity through the TCP transport: they are nacked, counted, and never
// reach the engine.
func TestInvalidIdentityRefusedAtDoor(t *testing.T) {
	d := bootDaemon(t, node.Config{})
	good := mcs.Report{Fleet: "cab", Participant: 0, Slot: 0, X: 1, Y: 2}
	bad := []mcs.Report{
		{Fleet: "", Participant: 0, Slot: 1, X: 1, Y: 2},
		{Fleet: "cab", Participant: -1, Slot: 2, X: 1, Y: 2},
	}
	acked, err := mcs.SendReports(context.Background(), d.IngestAddr().String(),
		append([]mcs.Report{good}, bad...))
	if err != nil {
		t.Fatal(err)
	}
	if acked != 1 {
		t.Fatalf("acked %d, want only the valid report", acked)
	}
	if got := d.InvalidIdentity(); got != uint64(len(bad)) {
		t.Fatalf("invalid_identity = %d, want %d", got, len(bad))
	}
	if st := d.Engine().Stats(); st.Ingested != 1 {
		t.Fatalf("engine ingested %d, want 1 — an invalid identity leaked through", st.Ingested)
	}

	// The refusal surfaces in both metrics forms.
	var m struct {
		InvalidIdentity uint64 `json:"reports_invalid_identity"`
	}
	base := "http://" + d.HTTPAddr().String()
	if status, err := getJSON(base+"/metrics?format=json", &m); err != nil || status != http.StatusOK {
		t.Fatalf("metrics: status %d err %v", status, err)
	}
	if m.InvalidIdentity != uint64(len(bad)) {
		t.Errorf("json metrics invalid_identity = %d, want %d", m.InvalidIdentity, len(bad))
	}
}

// TestDaemonRestartPreservesLedger shuts a durable reputation-enabled
// daemon down cleanly and restarts it on the same directory: the restored
// ledger must be bit-identical to the one the first life carried.
func TestDaemonRestartPreservesLedger(t *testing.T) {
	const (
		n, w, h    = 12, 24, 8
		slots      = 24 + 8*6
		faultyFrom = 10
	)
	dir := t.TempDir()
	newCfg := func() node.Config {
		opt := wal.DefaultOptions()
		opt.Sync = wal.SyncInterval
		rep := reputation.DefaultConfig()
		return node.Config{
			Engine:     repDaemonConfig(n, w, h),
			IngestAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", IdleTimeout: time.Minute,
			DataDir: dir, WAL: opt, CheckpointEvery: 2,
			Reputation: &rep,
		}
	}

	d1, err := node.New(newCfg())
	if err != nil {
		t.Fatal(err)
	}
	d1.Serve(d1.Handler())
	waitReady(t, d1)
	reports := faultyFleetReports(t, "cab", n, slots, faultyFrom)
	if acked, err := mcs.SendReports(context.Background(), d1.IngestAddr().String(), reports); err != nil || acked != len(reports) {
		t.Fatalf("acked %d of %d, err %v", acked, len(reports), err)
	}
	waitWindows(t, d1.Engine(), uint64((slots-w)/h))
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := d1.Ledger().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if d1.Ledger().Stats().Folded == 0 {
		t.Fatal("first life folded nothing — the comparison would be vacuous")
	}

	d2, err := node.New(newCfg())
	if err != nil {
		t.Fatal(err)
	}
	d2.Serve(d2.Handler())
	waitReady(t, d2)
	defer func() {
		if err := d2.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	got, err := d2.Ledger().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("restored ledger differs from the one checkpointed at shutdown:\nwant %d bytes %x…\ngot  %d bytes %x…",
			len(want), want[:16], len(got), got[:16])
	}
}
