package node

import (
	"testing"
	"time"

	"itscs/internal/mcs"
	"itscs/internal/pipeline"
	"itscs/internal/wal"
)

// TestCheckpointCadence pins the checkpointer to the closed-window count
// the engine's OnWindowClose hook reports: with CheckpointEvery 2, the
// first closed window writes no checkpoint and the second writes one.
func TestCheckpointCadence(t *testing.T) {
	const participants, window, hop = 4, 8, 4
	ecfg := pipeline.DefaultConfig()
	ecfg.Participants = participants
	ecfg.WindowSlots = window
	ecfg.HopSlots = hop
	ecfg.Workers = 1
	wopt := wal.DefaultOptions()
	wopt.Sync = wal.SyncInterval
	n, err := New(Config{
		Engine: ecfg, IngestAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0",
		DataDir: t.TempDir(), WAL: wopt, CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Serve(n.Handler())
	if err := n.WaitReady(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := n.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	// ingestTo feeds every participant's slots up to and including last
	// and checks how many windows the engine has closed.
	next := 0
	ingestTo := func(last int, wantClosed uint64) {
		t.Helper()
		for ; next <= last; next++ {
			for p := 0; p < participants; p++ {
				r := mcs.Report{Fleet: "cab", Participant: p, Slot: next,
					X: 1000*float64(p) + 10*float64(next), Y: 500 + 5*float64(next)}
				if err := n.Engine().Ingest(r); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := n.Engine().Stats().WindowsClosed; got != wantClosed {
			t.Fatalf("after slot %d: %d windows closed, want %d", last, got, wantClosed)
		}
	}
	written := func() uint64 { return n.dur.checkpointStats().Written }

	ingestTo(window, 1)
	// Nothing to poll for: give the checkpointer time to act on the kick.
	time.Sleep(200 * time.Millisecond)
	if w := written(); w != 0 {
		t.Fatalf("one closed window wrote %d checkpoints, want 0", w)
	}

	ingestTo(window+hop, 2)
	deadline := time.Now().Add(30 * time.Second)
	for written() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("two closed windows wrote no checkpoint")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if w := written(); w != 1 {
		t.Fatalf("two closed windows wrote %d checkpoints, want 1", w)
	}
}
