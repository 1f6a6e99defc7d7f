package main

import (
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"itscs/internal/mcs"
	"itscs/internal/node"
	"itscs/internal/obs"
	"itscs/internal/obs/obstest"
	"itscs/internal/pipeline"
	"itscs/internal/reputation"
	"itscs/internal/wal"
)

// bootDaemon starts a small node and registers its shutdown. Of
// cfg.Engine it keeps only the Clock.
func bootDaemon(t *testing.T, cfg node.Config) *node.Node {
	t.Helper()
	clock := cfg.Engine.Clock // nil: the wall clock
	cfg.Engine = pipeline.DefaultConfig()
	cfg.Engine.Clock = clock
	cfg.Engine.Participants = 8
	cfg.Engine.WindowSlots = 16
	cfg.Engine.HopSlots = 8
	cfg.Engine.Workers = 1
	if cfg.IngestAddr == "" {
		cfg.IngestAddr = "127.0.0.1:0"
	}
	if cfg.HTTPAddr == "" {
		cfg.HTTPAddr = "127.0.0.1:0"
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = time.Minute
	}
	d, err := node.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Serve(d.Handler())
	waitReady(t, d)
	t.Cleanup(func() {
		if err := d.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return d
}

// TestMetricsExposition is the scrape-and-lint gate CI runs by name: it
// boots a durable daemon, scrapes /metrics in its default Prometheus text
// form, and validates the exposition with the format linter. A regression
// in metric naming, TYPE ordering, histogram bucket math, or label
// escaping fails here before any scraper sees it.
func TestMetricsExposition(t *testing.T) {
	opt := wal.DefaultOptions()
	opt.Sync = wal.SyncInterval
	rep := reputation.DefaultConfig()
	d := bootDaemon(t, node.Config{
		DataDir: t.TempDir(), WAL: opt, CheckpointEvery: 2,
		Reputation: &rep,
	})
	if err := d.Engine().Ingest(mcs.Report{Fleet: "cab", Participant: 0, Slot: 0, X: 1, Y: 2}); err != nil {
		t.Fatal(err)
	}

	base := "http://" + d.HTTPAddr().String()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("content type = %q, want %q", ct, obs.PromContentType)
	}
	if err := obs.LintExposition(body); err != nil {
		t.Fatalf("exposition failed lint: %v\n%s", err, body)
	}
	for _, want := range []string{
		"itscs_reports_ingested_total 1",
		"itscs_reports_invalid_identity_total",
		"itscs_reports_admitted_clean_total 1",
		"itscs_queue_capacity",
		"itscs_phase_latency_seconds_bucket",
		"itscs_wal_records_total",
		"itscs_checkpoints_written_total",
		"itscs_reputation_fleets",
		`itscs_reputation_participants{state="quarantined"}`,
		"itscs_reputation_windows_folded_total",
		"itscs_reputation_folds_skipped_total",
		"itscs_build_info",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The JSON form stays reachable for humans and the existing tests.
	for _, hdr := range []bool{false, true} {
		req, _ := http.NewRequest(http.MethodGet, base+"/metrics?format=json", nil)
		if hdr {
			req, _ = http.NewRequest(http.MethodGet, base+"/metrics", nil)
			req.Header.Set("Accept", "application/json")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		ct := resp.Header.Get("Content-Type")
		resp.Body.Close()
		if ct != "application/json" {
			t.Errorf("JSON negotiation (header=%v): content type = %q", hdr, ct)
		}
	}
}

// TestMetricsConformance runs the shared negotiation contract against the
// daemon — the same checker the router's suite runs, so the two /metrics
// endpoints cannot drift apart on Content-Type handling.
func TestMetricsConformance(t *testing.T) {
	d := bootDaemon(t, node.Config{})
	if err := obstest.CheckMetricsConformance("http://" + d.HTTPAddr().String()); err != nil {
		t.Fatal(err)
	}
}

// TestStatusEndpoint checks the one-call health overview: always JSON,
// always 200 while serving, engine counters and the freshness block present
// and coherent with what was ingested.
func TestStatusEndpoint(t *testing.T) {
	opt := wal.DefaultOptions()
	opt.Sync = wal.SyncInterval
	d := bootDaemon(t, node.Config{DataDir: t.TempDir(), WAL: opt, CheckpointEvery: 2})
	base := "http://" + d.HTTPAddr().String()
	if err := d.Engine().Ingest(mcs.Report{Fleet: "cab", Participant: 0, Slot: 0, X: 1, Y: 2}); err != nil {
		t.Fatal(err)
	}

	var st struct {
		Status  string  `json:"status"`
		Ready   bool    `json:"ready"`
		UptimeS float64 `json:"uptime_s"`
		Build   struct {
			GoVersion string `json:"go_version"`
		} `json:"build"`
		Engine struct {
			Ingested         uint64 `json:"ingested"`
			ReportsStamped   uint64 `json:"reports_stamped"`
			ReportsUnstamped uint64 `json:"reports_unstamped"`
		} `json:"engine"`
		Freshness struct {
			AgeAtClose pipeline.FreshnessSummary `json:"age_at_close"`
			ByFleet    map[string]any            `json:"by_fleet"`
		} `json:"freshness"`
		Durability struct {
			DataDir     string `json:"data_dir"`
			FsyncPolicy string `json:"fsync_policy"`
		} `json:"durability"`
	}
	if status, err := getJSON(base+"/status", &st); err != nil || status != http.StatusOK {
		t.Fatalf("/status: status %d err %v", status, err)
	}
	if st.Status != "ok" || !st.Ready || st.UptimeS < 0 {
		t.Errorf("status header block = %+v", st)
	}
	if st.Build.GoVersion == "" {
		t.Error("status missing build info")
	}
	if st.Engine.Ingested != 1 {
		t.Errorf("engine.ingested = %d, want 1", st.Engine.Ingested)
	}
	// The direct engine feed bypasses every stamping door, so the report
	// counts as unstamped — the partition must still hold.
	if st.Engine.ReportsStamped+st.Engine.ReportsUnstamped != st.Engine.Ingested {
		t.Errorf("stamped %d + unstamped %d != ingested %d",
			st.Engine.ReportsStamped, st.Engine.ReportsUnstamped, st.Engine.Ingested)
	}
	if st.Freshness.ByFleet == nil {
		t.Error("status missing freshness.by_fleet")
	}
	if st.Durability.DataDir == "" || st.Durability.FsyncPolicy == "" {
		t.Errorf("durability block = %+v", st.Durability)
	}
}

// TestResultsNoContentBeforeFirstWindow pins the fix for the silent
// (nil, nil) path: a fleet the engine knows about but has not finished a
// window for answers 204, clearly distinct from both a result (200) and
// an unknown fleet (404).
func TestResultsNoContentBeforeFirstWindow(t *testing.T) {
	d := bootDaemon(t, node.Config{})
	if err := d.Engine().Ingest(mcs.Report{Fleet: "cab", Participant: 0, Slot: 0, X: 1, Y: 2}); err != nil {
		t.Fatal(err)
	}

	base := "http://" + d.HTTPAddr().String()
	resp, err := http.Get(base + "/results/cab")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("known fleet, no window: status = %d, want 204", resp.StatusCode)
	}
	if len(body) != 0 {
		t.Errorf("204 carried a body: %q", body)
	}

	if resp, err = http.Get(base + "/results/none"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown fleet: status = %d, want 404", resp.StatusCode)
	}

	// Trace mirrors the split: known fleet yields an empty span list,
	// unknown fleet 404s.
	var tr struct {
		Fleet string     `json:"fleet"`
		Spans []obs.Span `json:"spans"`
	}
	if status, err := getJSON(base+"/trace/cab", &tr); err != nil || status != http.StatusOK {
		t.Fatalf("trace known fleet: status %d err %v", status, err)
	}
	if len(tr.Spans) != 0 {
		t.Errorf("spans before any window = %d, want 0", len(tr.Spans))
	}
	var errBody struct {
		Error string `json:"error"`
	}
	if status, err := getJSON(base+"/trace/none", &errBody); err != nil || status != http.StatusNotFound {
		t.Errorf("trace unknown fleet: status %d err %v", status, err)
	}
}

// TestDebugListener checks that -debug-addr exposes pprof and build info
// on its own listener, that build info's uptime runs on the node's own
// clock (read after /status, it cannot be shorter), and that the public
// sidecar does not serve them.
func TestDebugListener(t *testing.T) {
	d := bootDaemon(t, node.Config{})
	srv, ln, err := listenDebug("127.0.0.1:0", d.Runtime())
	if err != nil {
		t.Fatal("debug listener not bound: ", err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	debug := "http://" + ln.Addr().String()

	var st struct {
		UptimeS float64 `json:"uptime_s"`
	}
	if status, err := getJSON("http://"+d.HTTPAddr().String()+"/status", &st); err != nil || status != http.StatusOK {
		t.Fatalf("status: status %d err %v", status, err)
	}
	var bi map[string]any
	if status, err := getJSON(debug+"/debug/buildinfo", &bi); err != nil || status != http.StatusOK {
		t.Fatalf("buildinfo: status %d err %v", status, err)
	}
	if up, ok := bi["uptime_s"].(float64); bi["go_version"] == "" || !ok || up < st.UptimeS {
		t.Errorf("buildinfo = %v, want uptime_s at least /status's earlier %v", bi, st.UptimeS)
	}

	resp, err := http.Get(debug + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof goroutine: status %d body %.80q", resp.StatusCode, body)
	}

	// The public sidecar must not leak the profiler.
	resp, err = http.Get("http://" + d.HTTPAddr().String() + "/debug/pprof/goroutine")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof on public mux: status = %d, want 404", resp.StatusCode)
	}
}

// TestHTTPServerTimeouts pins the slowloris defenses. The daemon's
// public server must carry both timeouts, and a server built with short
// values must actually disconnect a client that stalls mid-header and an
// idle keep-alive connection.
func TestHTTPServerTimeouts(t *testing.T) {
	d := bootDaemon(t, node.Config{})
	if srv := d.HTTPServer(); srv.ReadHeaderTimeout != obs.ReadHeaderTimeout {
		t.Errorf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, obs.ReadHeaderTimeout)
	}
	if srv := d.HTTPServer(); srv.IdleTimeout != obs.IdleTimeout {
		t.Errorf("IdleTimeout = %v, want %v", srv.IdleTimeout, obs.IdleTimeout)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := obs.NewHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	srv.ReadHeaderTimeout, srv.IdleTimeout = 150*time.Millisecond, 150*time.Millisecond
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	// Slowloris: open a connection, send half a request line, stall. The
	// server must hang up instead of waiting forever.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\nHost: stall")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("stalled-header connection still open after ReadHeaderTimeout")
	}

	// Idle keep-alive: complete one request, then go quiet. The server
	// must close the connection once IdleTimeout elapses.
	conn2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := conn2.Write([]byte("GET / HTTP/1.1\r\nHost: idle\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	_ = conn2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn2.Read(buf); err != nil {
		t.Fatalf("first response never arrived: %v", err)
	}
	_ = conn2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn2.Read(buf); err == nil {
		t.Error("idle keep-alive connection still open after IdleTimeout")
	}
}
