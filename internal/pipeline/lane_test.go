package pipeline

import (
	"sync"
	"testing"
	"time"

	"itscs/internal/wal"
)

// holdOnResult returns an OnResult hook that reports each window on entered
// and blocks the window with seq held until release is called, plus that
// idempotent release. Tests defer release after deferring the engine's
// Close, so a failing test still lets the workers finish.
func holdOnResult(held int, entered chan<- *WindowResult) (func(*WindowResult), func()) {
	gate := make(chan struct{})
	var once sync.Once
	hook := func(r *WindowResult) {
		entered <- r
		if r.Seq == held {
			<-gate
		}
	}
	return hook, func() { once.Do(func() { close(gate) }) }
}

// TestFleetWindowsRunInSeqOrder pins the lane rule at the shipped worker
// count: while a fleet's window 0 is held inside OnResult its window 1 does
// not start, and once window 0 is released window 1 warm-starts from it and
// every result arrives in seq order.
func TestFleetWindowsRunInSeqOrder(t *testing.T) {
	const (
		n = 16
		w = 60
		h = 20
	)
	fleet, res := fixture(t, n, w+2*h+1, 0.1, 0.1)
	entered := make(chan *WindowResult, 8)
	cfg := mechConfig(n, w, h)
	cfg.Workers = 2
	hook, release := holdOnResult(0, entered)
	cfg.OnResult = hook
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	defer release()
	results, cancel := e.Subscribe(8)
	defer cancel()

	streamFixture(t, e, "cab", fleet, res) // closes windows 0, 1 and 2
	select {
	case r := <-entered:
		if r.Seq != 0 {
			t.Fatalf("first window in OnResult is seq %d, want 0", r.Seq)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("window 0 never reached OnResult")
	}
	select {
	case r := <-entered:
		t.Fatalf("window %d entered OnResult while window 0 was held", r.Seq)
	case <-time.After(2 * time.Second):
	}
	release()
	e.Close()

	var got []*WindowResult
	for r := range results {
		got = append(got, r)
	}
	if len(got) < 2 {
		t.Fatalf("got %d results, want at least 2", len(got))
	}
	for i, r := range got {
		if r.Seq != i {
			t.Errorf("result %d has seq %d: windows published out of order", i, r.Seq)
		}
	}
	if !got[1].WarmStarted {
		t.Error("window 1 did not warm-start from window 0")
	}
}

// TestCheckpointDrainsClosedWindows pins the drained checkpoint: while a
// closed window is held inside OnResult, Checkpoint waits, and once the
// window is released the snapshot carries that window's warm factors.
func TestCheckpointDrainsClosedWindows(t *testing.T) {
	const (
		n = 16
		w = 60
		h = 20
	)
	fleet, res := fixture(t, n, w+1, 0.1, 0.1)
	entered := make(chan *WindowResult, 8)
	cfg := mechConfig(n, w, h)
	hook, release := holdOnResult(0, entered)
	cfg.OnResult = hook
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	defer release()

	streamFixture(t, e, "cab", fleet, res) // closes window 0 only
	var win *WindowResult
	select {
	case win = <-entered:
	case <-time.After(2 * time.Minute):
		t.Fatal("window 0 never reached OnResult")
	}
	type checkpoint struct {
		ck  *wal.Checkpoint
		err error
	}
	done := make(chan checkpoint, 1)
	go func() {
		ck, err := e.Checkpoint()
		done <- checkpoint{ck, err}
	}()
	select {
	case <-done:
		t.Fatal("Checkpoint returned while a closed window was still running")
	case <-time.After(200 * time.Millisecond):
	}
	release()
	var got checkpoint
	select {
	case got = <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("Checkpoint never returned after the window was released")
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	if len(got.ck.Shards) != 1 {
		t.Fatalf("checkpoint holds %d shards, want 1", len(got.ck.Shards))
	}
	sc := got.ck.Shards[0]
	if sc.WarmSeq != win.Seq {
		t.Errorf("checkpoint warm seq = %d, want %d", sc.WarmSeq, win.Seq)
	}
	warm := win.Output.Warm
	if sc.WarmLX == nil || sc.WarmRX == nil {
		t.Fatal("checkpoint holds no warm factors")
	}
	if !sc.WarmLX.Equal(warm.X.L, 0) || !sc.WarmRX.Equal(warm.X.R, 0) {
		t.Error("checkpoint warm factors differ from the window's output")
	}
}
