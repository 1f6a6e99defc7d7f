package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"itscs/internal/corrupt"
	"itscs/internal/mcs"
	"itscs/internal/node"
	"itscs/internal/obs"
	"itscs/internal/pipeline"
	"itscs/internal/trace"
	"itscs/internal/wal"
)

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-window", "0"},
		{"-hop", "300"}, // exceeds default window
		{"-tau", "0s"},
		{"-participants", "-3"},
		{"-not-a-flag"},
	} {
		if err := run(args, io.Discard, make(chan struct{})); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

// TestDaemonEndToEnd boots the daemon on ephemeral ports, streams a small
// corrupted fleet through the TCP ingest, and reads the detection result
// back over HTTP.
func TestDaemonEndToEnd(t *testing.T) {
	const (
		n = 24
		w = 60
		h = 20
	)
	cfg := pipeline.DefaultConfig()
	cfg.Participants = n
	cfg.WindowSlots = w
	cfg.HopSlots = h
	cfg.Workers = 1
	d, err := node.New(node.Config{Engine: cfg, IngestAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", IdleTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	d.Serve(d.Handler())
	waitReady(t, d)
	defer func() {
		if err := d.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	tcfg := trace.DefaultConfig()
	tcfg.Participants = n
	tcfg.Slots = w + 2*h + 1
	fleet, err := trace.Generate(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := corrupt.DefaultPlan()
	plan.MissingRatio = 0.1
	plan.FaultyRatio = 0.1
	res, err := corrupt.Apply(plan, fleet.X, fleet.Y)
	if err != nil {
		t.Fatal(err)
	}
	var reports []mcs.Report
	for s := 0; s < tcfg.Slots; s++ {
		for i := 0; i < n; i++ {
			if res.Existence.At(i, s) == 0 {
				continue
			}
			reports = append(reports, mcs.Report{
				Fleet: "cab", Participant: i, Slot: s,
				X: res.SX.At(i, s), Y: res.SY.At(i, s),
				VX: fleet.VX.At(i, s), VY: fleet.VY.At(i, s),
			})
		}
	}
	// Subscribe before streaming: the first published window is then an
	// event to wait on, not a condition to poll for. The engine stores the
	// latest result before publishing, so once the subscription fires the
	// HTTP endpoint is guaranteed to serve it.
	results, cancel := d.Engine().Subscribe(16)
	defer cancel()

	acked, err := mcs.SendReports(context.Background(), d.IngestAddr().String(), reports)
	if err != nil {
		t.Fatal(err)
	}
	if acked != len(reports) {
		t.Fatalf("acked %d of %d reports", acked, len(reports))
	}

	base := "http://" + d.HTTPAddr().String()

	select {
	case <-results:
	case <-time.After(2 * time.Minute):
		t.Fatal("no window result published")
	}
	var wr pipeline.WindowResult
	if status, err := getJSON(base+"/results/cab", &wr); err != nil || status != http.StatusOK {
		t.Fatalf("results after publish: status %d err %v", status, err)
	}
	if wr.Fleet != "cab" || wr.EndSlot-wr.StartSlot != w || wr.Observed == 0 {
		t.Errorf("window result = %+v", wr)
	}
	if wr.Flagged != len(wr.Flags) {
		t.Errorf("flagged %d != len(flags) %d", wr.Flagged, len(wr.Flags))
	}

	var health struct {
		Status string `json:"status"`
	}
	if status, err := getJSON(base+"/healthz", &health); err != nil || status != http.StatusOK || health.Status != "ok" {
		t.Errorf("healthz: status %d err %v body %+v", status, err, health)
	}

	var stats pipeline.Stats
	if status, err := getJSON(base+"/metrics?format=json", &stats); err != nil || status != http.StatusOK {
		t.Fatalf("metrics: status %d err %v", status, err)
	}
	if stats.Ingested != uint64(len(reports)) {
		t.Errorf("metrics ingested = %d, want %d", stats.Ingested, len(reports))
	}
	if stats.WindowsProcessed < 1 {
		t.Errorf("metrics windows_processed = %d, want >= 1", stats.WindowsProcessed)
	}

	var fleets struct {
		Fleets []string `json:"fleets"`
	}
	if status, err := getJSON(base+"/results", &fleets); err != nil || status != http.StatusOK {
		t.Fatalf("results index: status %d err %v", status, err)
	}
	if len(fleets.Fleets) != 1 || fleets.Fleets[0] != "cab" {
		t.Errorf("fleets = %v, want [cab]", fleets.Fleets)
	}

	var errBody struct {
		Error string `json:"error"`
	}
	if status, err := getJSON(base+"/results/none", &errBody); err != nil || status != http.StatusNotFound {
		t.Errorf("unknown fleet: status %d err %v", status, err)
	}

	// The processed windows must have left trace spans with real timings.
	var tr struct {
		Spans []obs.Span `json:"spans"`
	}
	if status, err := getJSON(base+"/trace/cab", &tr); err != nil || status != http.StatusOK {
		t.Fatalf("trace: status %d err %v", status, err)
	}
	if len(tr.Spans) == 0 {
		t.Fatal("no trace spans after a processed window")
	}
	sp := tr.Spans[0]
	if sp.Fleet != "cab" || sp.RunMS <= 0 || sp.DetectMS <= 0 || sp.CorrectMS <= 0 || sp.QueueWaitMS < 0 {
		t.Errorf("span = %+v", sp)
	}
	if sp.Sweeps <= 0 || sp.Observed == 0 {
		t.Errorf("span missing sweep/observation counts: %+v", sp)
	}

	// The default /metrics form is Prometheus text and must lint.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("Content-Type"); got != obs.PromContentType {
		t.Errorf("prom content type = %q", got)
	}
	if err := obs.LintExposition(prom); err != nil {
		t.Errorf("exposition failed lint: %v", err)
	}
}

// TestDaemonDurableRestart boots a durable daemon, streams half a fleet,
// shuts it down gracefully, and restarts on the same directory: the final
// checkpoint must make the restart replay nothing, and the restored stream
// state must merge with the second half into a full window result.
func TestDaemonDurableRestart(t *testing.T) {
	const (
		n = 24
		w = 60
		h = 20
	)
	dir := t.TempDir()
	cfg := pipeline.DefaultConfig()
	cfg.Participants = n
	cfg.WindowSlots = w
	cfg.HopSlots = h
	cfg.Workers = 1
	newCfg := func() node.Config {
		opt := wal.DefaultOptions()
		opt.Sync = wal.SyncInterval
		return node.Config{
			Engine: cfg, IngestAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", IdleTimeout: time.Minute,
			DataDir: dir, WAL: opt, CheckpointEvery: 2,
		}
	}

	tcfg := trace.DefaultConfig()
	tcfg.Participants = n
	tcfg.Slots = w + 2*h + 1
	fleet, err := trace.Generate(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := corrupt.DefaultPlan()
	plan.MissingRatio = 0.1
	plan.FaultyRatio = 0.1
	res, err := corrupt.Apply(plan, fleet.X, fleet.Y)
	if err != nil {
		t.Fatal(err)
	}
	reports := func(from, to int) []mcs.Report {
		var out []mcs.Report
		for s := from; s < to; s++ {
			for i := 0; i < n; i++ {
				if res.Existence.At(i, s) == 0 {
					continue
				}
				out = append(out, mcs.Report{
					Fleet: "cab", Participant: i, Slot: s,
					X: res.SX.At(i, s), Y: res.SY.At(i, s),
					VX: fleet.VX.At(i, s), VY: fleet.VY.At(i, s),
				})
			}
		}
		return out
	}

	// First life: stream the first 50 slots, then shut down gracefully.
	d1, err := node.New(newCfg())
	if err != nil {
		t.Fatal(err)
	}
	d1.Serve(d1.Handler())
	waitReady(t, d1)
	first := reports(0, 50)
	if acked, err := mcs.SendReports(context.Background(), d1.IngestAddr().String(), first); err != nil || acked != len(first) {
		t.Fatalf("first life acked %d of %d, err %v", acked, len(first), err)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: the shutdown checkpoint covers every logged record, so a
	// clean restart restores the fleet and replays nothing.
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
	rec := d2.Recovery()
	if rec == nil {
		t.Fatal("restart reported no recovery")
	}
	if rec.Fleets != 1 || rec.ReplayedRecords != 0 || rec.ReplayRejected != 0 {
		t.Fatalf("recovery = %+v, want 1 fleet and no replay after clean shutdown", rec)
	}

	// Subscribe before streaming the second life so the window that spans
	// the restart — ring state from the checkpoint plus fresh slots — is an
	// event, not a polling target.
	results, cancel := d2.Engine().Subscribe(16)
	defer cancel()

	rest := reports(50, tcfg.Slots)
	if acked, err := mcs.SendReports(context.Background(), d2.IngestAddr().String(), rest); err != nil || acked != len(rest) {
		t.Fatalf("second life acked %d of %d, err %v", acked, len(rest), err)
	}

	base := "http://" + d2.HTTPAddr().String()
	select {
	case <-results:
	case <-time.After(2 * time.Minute):
		t.Fatal("no window result published after restart")
	}
	var wr pipeline.WindowResult
	if status, err := getJSON(base+"/results/cab", &wr); err != nil || status != http.StatusOK {
		t.Fatalf("results after restart: status %d err %v", status, err)
	}
	if wr.EndSlot-wr.StartSlot != w || wr.Observed == 0 {
		t.Errorf("post-restart window = %+v", wr)
	}

	var m struct {
		pipeline.Stats
		WAL      *wal.Stats     `json:"wal"`
		Recovery *node.Recovery `json:"recovery"`
	}
	if status, err := getJSON(base+"/metrics?format=json", &m); err != nil || status != http.StatusOK {
		t.Fatalf("metrics: status %d err %v", status, err)
	}
	if m.WAL == nil || m.WAL.Records != uint64(len(rest)) {
		t.Errorf("wal metrics = %+v, want %d records this life", m.WAL, len(rest))
	}
	if m.Recovery == nil || m.Recovery.Fleets != 1 {
		t.Errorf("recovery metrics = %+v", m.Recovery)
	}
}

// waitReady blocks until the node's startup phase (recovery included)
// has completed and ingest is accepting.
func waitReady(t *testing.T, d *node.Node) {
	t.Helper()
	if err := d.WaitReady(); err != nil {
		t.Fatalf("node never became ready: %v", err)
	}
}

// TestReadyzGatesOnRecovery pins the liveness/readiness split: while
// startup recovery runs, /healthz answers 200 but /readyz answers 503;
// once recovery completes, /readyz flips to 200 and ingest accepts.
func TestReadyzGatesOnRecovery(t *testing.T) {
	opt := wal.DefaultOptions()
	opt.Sync = wal.SyncInterval
	gate := make(chan struct{})
	cfg := pipeline.DefaultConfig()
	cfg.Participants = 8
	cfg.WindowSlots = 16
	cfg.HopSlots = 8
	cfg.Workers = 1
	d, err := node.New(node.Config{
		Engine:          cfg,
		IngestAddr:      "127.0.0.1:0",
		HTTPAddr:        "127.0.0.1:0",
		IdleTimeout:     time.Minute,
		DataDir:         t.TempDir(),
		WAL:             opt,
		CheckpointEvery: 2,
		StartupGate:     gate,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Serve(d.Handler())
	released := false
	release := func() {
		if !released {
			released = true
			close(gate)
		}
	}
	defer func() {
		release()
		if err := d.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	base := "http://" + d.HTTPAddr().String()
	var health struct {
		Status string `json:"status"`
	}
	if status, err := getJSON(base+"/healthz", &health); err != nil || status != http.StatusOK {
		t.Fatalf("healthz during recovery: status %d err %v", status, err)
	}
	var readiness struct {
		Status string `json:"status"`
	}
	status, err := getJSON(base+"/readyz", &readiness)
	if err != nil || status != http.StatusServiceUnavailable || readiness.Status != "recovering" {
		t.Fatalf("readyz during recovery: status %d body %+v err %v", status, readiness, err)
	}

	release()
	waitReady(t, d)
	if status, err := getJSON(base+"/readyz", &readiness); err != nil || status != http.StatusOK || readiness.Status != "ready" {
		t.Fatalf("readyz after recovery: status %d body %+v err %v", status, readiness, err)
	}
	acked, err := mcs.SendReports(context.Background(), d.IngestAddr().String(),
		[]mcs.Report{{Fleet: "cab", Participant: 0, Slot: 0, X: 1, Y: 2}})
	if err != nil || acked != 1 {
		t.Fatalf("post-ready ingest: acked %d err %v", acked, err)
	}
}

func getJSON(url string, v any) (int, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}
