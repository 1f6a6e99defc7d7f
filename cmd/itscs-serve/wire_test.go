package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"itscs/internal/mcs"
	"itscs/internal/node"
	"itscs/internal/wal"
)

// TestBothFramingsLogIdenticalWAL sends the same stamped reports to two
// durable daemons, once as JSON lines through SendReports (a participant's
// path) and once as binary frames through a Client (the router's path):
// both leave byte-identical WAL segments. Each stream also carries a report
// with participant −1, which neither door lets into its log; the Client's
// stream adds a NaN report, which the binary hop carries and the engine
// refuses as non-finite.
func TestBothFramingsLogIdenticalWAL(t *testing.T) {
	const participants, slots = 8, 10 // inside the first 16-slot window: no checkpoint
	var reports []mcs.Report
	for s := 0; s < slots; s++ {
		for p := 0; p < participants; p++ {
			i := s*participants + p
			reports = append(reports, mcs.Report{
				Fleet: "cab", Participant: p, Slot: s,
				X: 1200.5 + float64(i)/3, Y: -884 * math.Pi / float64(i+1), VX: 1e-300 * float64(i), VY: -0.1,
				IngestUnixMicro: 1_700_000_000_000_000 + int64(i), Origin: mcs.OriginRouter, TraceID: uint64(i + 1),
			})
		}
	}
	negative := mcs.Report{Fleet: "cab", Participant: -1, Slot: 0, IngestUnixMicro: 1, Origin: mcs.OriginRouter, TraceID: 1 << 40}
	nan := mcs.Report{Fleet: "cab", Participant: 0, Slot: slots, X: math.NaN(), IngestUnixMicro: 2, Origin: mcs.OriginRouter, TraceID: 1 << 41}

	boot := func() (*node.Node, string) {
		dir := t.TempDir()
		return bootDaemon(t, node.Config{DataDir: dir, WAL: wal.DefaultOptions(), CheckpointEvery: node.DefaultCheckpointEvery}), dir
	}
	jsonNode, jsonDir := boot()
	binNode, binDir := boot()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	acked, err := mcs.SendReports(ctx, jsonNode.IngestAddr().String(), append(append([]mcs.Report(nil), reports...), negative))
	if err != nil || acked != len(reports) {
		t.Fatalf("SendReports acked %d of %d, err %v", acked, len(reports), err)
	}

	cl := mcs.NewClient(binNode.IngestAddr().String(), mcs.ClientOptions{QueueDepth: 4 * len(reports)})
	defer cl.Close()
	for _, r := range append(append([]mcs.Report(nil), reports...), negative, nan) {
		if err := cl.Send(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if st := cl.Stats(); st.Acked != uint64(len(reports)) || st.Rejected != 2 || st.Retries != 0 {
		t.Fatalf("client stats %+v, want %d acked, 2 rejected, no retries", st, len(reports))
	}
	if m := scrapeCounters(t, binNode, "itscs_reports_non_finite_total"); m["itscs_reports_non_finite_total"] != 1 {
		t.Errorf("non-finite refusals = %v, want 1", m["itscs_reports_non_finite_total"])
	}

	jsonSegs, binSegs := segments(t, jsonDir), segments(t, binDir)
	if len(jsonSegs) == 0 || len(jsonSegs) != len(binSegs) {
		t.Fatalf("segments: %d via JSON, %d via binary", len(jsonSegs), len(binSegs))
	}
	for name, want := range jsonSegs {
		if got, ok := binSegs[name]; !ok || !bytes.Equal(got, want) {
			t.Fatalf("segment %s differs: %d bytes via JSON, %d via binary", name, len(want), len(got))
		}
	}
	for _, d := range []*node.Node{jsonNode, binNode} {
		if m := scrapeCounters(t, d, "itscs_wal_records_total"); m["itscs_wal_records_total"] != float64(len(reports)) {
			t.Errorf("wal records = %v, want %d", m["itscs_wal_records_total"], len(reports))
		}
	}
}

// segments reads every WAL segment file in dir, by name.
func segments(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(name)] = b
	}
	return out
}
