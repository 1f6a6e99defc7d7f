package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"itscs/internal/mcs"
	"itscs/internal/node"
	"itscs/internal/wal"
)

// scrapeCounters reads the named unlabelled series from the daemon's
// Prometheus exposition.
func scrapeCounters(t *testing.T, d *node.Node, names ...string) map[string]float64 {
	t.Helper()
	resp, err := http.Get("http://" + d.HTTPAddr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		for _, want := range names {
			if name == want {
				if got[name], err = strconv.ParseFloat(value, 64); err != nil {
					t.Fatalf("%s: %v", sc.Text(), err)
				}
			}
		}
	}
	for _, name := range names {
		if _, ok := got[name]; !ok {
			t.Fatalf("exposition has no %s", name)
		}
	}
	return got
}

// TestDaemonIngestBatchesGroupCommit streams reports through one pipelined
// client into a durable daemon at the default fsync policy (always): the
// door hands each read's lines to one engine call, so the WAL commits many
// records per write and fsync instead of one.
func TestDaemonIngestBatchesGroupCommit(t *testing.T) {
	const reports = 5000
	d := bootDaemon(t, node.Config{
		DataDir: t.TempDir(), WAL: wal.DefaultOptions(), CheckpointEvery: node.DefaultCheckpointEvery,
	})
	cl := mcs.NewClient(d.IngestAddr().String(), mcs.ClientOptions{QueueDepth: reports})
	defer cl.Close()
	const participants = 8 // bootDaemon's fleet width
	for i := 0; i < reports; i++ {
		r := mcs.Report{Fleet: "cab", Participant: i % participants, Slot: i / participants, X: float64(i), Y: 1}
		if err := cl.Send(r); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := cl.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if st := cl.Stats(); st.Acked != reports {
		t.Fatalf("client stats %+v, want all %d acked", st, reports)
	}

	m := scrapeCounters(t, d, "itscs_wal_records_total", "itscs_wal_batches_total", "itscs_wal_fsyncs_total")
	records, batches, fsyncs := m["itscs_wal_records_total"], m["itscs_wal_batches_total"], m["itscs_wal_fsyncs_total"]
	if records != reports {
		t.Fatalf("wal records = %v, want %d", records, reports)
	}
	t.Logf("%v records in %v group commits (%.1f per commit), %v fsyncs", records, batches, records/batches, fsyncs)
	if records/batches < 16 {
		t.Errorf("%.1f records per group commit, want at least 16", records/batches)
	}
	if fsyncs > batches {
		t.Errorf("%v fsyncs for %v group commits under fsync always", fsyncs, batches)
	}
}
