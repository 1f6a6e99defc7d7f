package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"testing"
	"time"

	"itscs/internal/fault"
	"itscs/internal/mcs"
	"itscs/internal/node"
	"itscs/internal/pipeline"
	"itscs/internal/wal"
)

// phaseMS matches the span fields timed by the wall clock inside the
// detection loop; every other field of a /trace body follows the node's
// virtual clock and the seeded reports.
var phaseMS = regexp.MustCompile(`"(detect|correct|check)_ms":[^,}]+`)

// TestTraceGolden pins the exact JSON of GET /trace/{fleet} and
// GET /trace/{fleet}?id=<hex> on a virtual clock: stamped live reports
// (with their wal_commit stage), one replayed report (wal_commit with the
// replay detail), one window carried through detect and publish, a trace
// still waiting in the open window, and an evicted ID answering 404. An
// intentional change updates testdata/trace_golden.txt with
//
//	go test ./cmd/itscs-serve/ -run TestTraceGolden -update
func TestTraceGolden(t *testing.T) {
	clock := fault.NewVirtualClock(time.Unix(1_700_000_000, 0))
	opt := wal.DefaultOptions()
	opt.Sync = wal.SyncAlways
	cfg := node.Config{
		Engine:          pipeline.DefaultConfig(),
		IngestAddr:      "127.0.0.1:0",
		HTTPAddr:        "127.0.0.1:0",
		DataDir:         t.TempDir(),
		WAL:             opt,
		CheckpointEvery: 100,
	}
	cfg.Engine.Participants = 8
	cfg.Engine.WindowSlots = 16
	cfg.Engine.HopSlots = 8
	cfg.Engine.Workers = 1
	cfg.Engine.TraceDepth = 4
	cfg.Engine.Clock = clock
	// The publish stage lands a millisecond after detect.
	cfg.Engine.OnResult = func(*pipeline.WindowResult) { clock.Advance(time.Millisecond) }
	d, err := node.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	e := d.Engine()
	results, cancel := e.Subscribe(4)
	defer cancel()

	stamped := func(id uint64, p, slot int) mcs.Report {
		return mcs.Report{
			Fleet: "cab", Participant: p, Slot: slot, X: float64(10 * p), Y: float64(slot),
			IngestUnixMicro: clock.Now().UnixMicro() - 500, Origin: mcs.OriginRouter, TraceID: id,
		}
	}
	// Live reports, one commit each. The depth-4 table evicts 0x11 when
	// 0xbeef is replayed and 0x12, the window's exemplar, when 0x20 opens.
	for i, id := range []uint64{0x11, 0x12, 0x13, 0x14} {
		clock.Advance(time.Millisecond)
		if err := e.Ingest(stamped(id, i, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	// Unstamped reports fill the window without opening traces; one of
	// them is far off its track, so detect flags something.
	for p := 0; p < 8; p++ {
		for slot := 6; slot < 16; slot++ {
			r := mcs.Report{Fleet: "cab", Participant: p, Slot: slot, X: float64(p), Y: float64(slot)}
			if p == 7 && slot == 10 {
				r.X = 5000
			}
			if err := e.Ingest(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	clock.Advance(time.Millisecond)
	if err := e.Replay(stamped(0xbeef, 5, 5)); err != nil {
		t.Fatal(err)
	}
	// Slot 16 closes window 0 = [0, 16); its own trace waits in the open
	// window.
	clock.Advance(time.Millisecond)
	if err := e.Ingest(stamped(0x20, 0, 16)); err != nil {
		t.Fatal(err)
	}
	if res := <-results; res.Seq != 0 {
		t.Fatalf("first result is window %d, want 0", res.Seq)
	}
	// Kill aborts the engine without flushing the open window, after the
	// worker has finished window 0 (publish stage included).
	if err := d.Kill(); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	for _, path := range []string{
		"/trace/cab",
		"/trace/cab?id=000000000000beef",
		"/trace/cab?id=13",
		"/trace/cab?id=0000000000000011",
	} {
		rec := httptest.NewRecorder()
		d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		body := phaseMS.ReplaceAllString(rec.Body.String(), `"${1}_ms":"<wall>"`)
		fmt.Fprintf(&got, "GET %s\n%d\n%s\n", path, rec.Code, body)
	}

	const golden = "testdata/trace_golden.txt"
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("/trace drifted from %s:\n--- got\n%s--- want\n%s", golden, got.Bytes(), want)
	}
}
