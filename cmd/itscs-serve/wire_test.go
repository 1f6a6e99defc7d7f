package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"itscs/internal/fault"
	"itscs/internal/mcs"
	"itscs/internal/node"
	"itscs/internal/wal"
)

// TestBothFramingsLogIdenticalWAL sends the same reports, each carrying a
// stamp, to two durable daemons: once as participant JSON lines that also
// send the stamp's former keys, once as binary frames through a Client
// (the router's path). Both WALs hold the same records with bit-identical
// payloads. The binary hop keeps each frame's stamp; the JSON door ignores
// the keys a participant sent and stamps every line itself, with the
// engine clock, origin direct and a newly minted trace ID. Each stream
// also carries a report with participant −1, which neither door lets into
// its log; the Client's stream adds a NaN report, which the binary hop
// carries and the engine refuses as non-finite.
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

	now := time.Unix(1_800_000_000, 0)
	boot := func() (*node.Node, string) {
		dir := t.TempDir()
		cfg := node.Config{DataDir: dir, WAL: wal.DefaultOptions(), CheckpointEvery: node.DefaultCheckpointEvery}
		cfg.Engine.Clock = fault.NewVirtualClock(now)
		return bootDaemon(t, cfg), dir
	}
	jsonNode, jsonDir := boot()
	binNode, binDir := boot()

	conn, err := net.Dial("tcp", jsonNode.IngestAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(time.Minute))
	w, acks := bufio.NewWriter(conn), bufio.NewReader(conn)
	for _, r := range append(append([]mcs.Report(nil), reports...), negative) {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(w, `%s,"ingest_us":%d,"origin":%d,"trace_id":%d}`+"\n", line[:len(line)-1], r.IngestUnixMicro, r.Origin, r.TraceID)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= len(reports); i++ {
		ack, err := acks.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if ok := ack == "ok\n"; ok != (i < len(reports)) {
			t.Fatalf("line %d acked %q", i, ack)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
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
	for _, d := range []*node.Node{jsonNode, binNode} {
		if m := scrapeCounters(t, d, "itscs_wal_records_total"); m["itscs_wal_records_total"] != float64(len(reports)) {
			t.Errorf("wal records = %v, want %d", m["itscs_wal_records_total"], len(reports))
		}
	}

	jsonRecs, binRecs := logged(t, jsonDir), logged(t, binDir)
	if len(jsonRecs) != len(reports) || len(binRecs) != len(reports) {
		t.Fatalf("logged %d records via JSON, %d via binary, want %d", len(jsonRecs), len(binRecs), len(reports))
	}
	minted := map[uint64]bool{}
	for i, sent := range reports {
		j, b := jsonRecs[i], binRecs[i]
		if !samePayload(j, sent) || !samePayload(b, sent) {
			t.Fatalf("record %d payload: %+v via JSON, %+v via binary, sent %+v", i, j, b, sent)
		}
		if b.IngestUnixMicro != sent.IngestUnixMicro || b.Origin != sent.Origin || b.TraceID != sent.TraceID {
			t.Fatalf("record %d via binary: stamp %d/%v/%x, want the frame's %d/%v/%x",
				i, b.IngestUnixMicro, b.Origin, b.TraceID, sent.IngestUnixMicro, sent.Origin, sent.TraceID)
		}
		if j.IngestUnixMicro != now.UnixMicro() || j.Origin != mcs.OriginDirect || j.TraceID == 0 || j.TraceID == sent.TraceID || minted[j.TraceID] {
			t.Fatalf("record %d via JSON: stamp %d/%v/%x, want the door's %d/direct and a new trace ID (sent %x)",
				i, j.IngestUnixMicro, j.Origin, j.TraceID, now.UnixMicro(), sent.TraceID)
		}
		minted[j.TraceID] = true
	}
}

// samePayload reports whether two reports carry the same fleet, identity
// and payload values, comparing values by their bits.
func samePayload(a, b mcs.Report) bool {
	return a.Fleet == b.Fleet && a.Participant == b.Participant && a.Slot == b.Slot &&
		math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.VX) == math.Float64bits(b.VX) && math.Float64bits(a.VY) == math.Float64bits(b.VY)
}

// logged copies the WAL segments of a live daemon's data directory to a
// fresh one and returns every record they replay, in log order.
func logged(t *testing.T, dir string) []mcs.Report {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(names) == 0 {
		t.Fatalf("segments in %s: %v, %v", dir, names, err)
	}
	cp := t.TempDir()
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cp, filepath.Base(name)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := wal.Open(cp, wal.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var out []mcs.Report
	if _, err := l.Replay(0, func(_ uint64, r mcs.Report) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}
