package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestTraceIDRoundTrip(t *testing.T) {
	for _, id := range []uint64{1, 0xdeadbeef, ^uint64(0)} {
		s := TraceIDString(id)
		if len(s) != 16 {
			t.Errorf("TraceIDString(%d) = %q, want 16 hex digits", id, s)
		}
		got, err := ParseTraceID(s)
		if err != nil || got != id {
			t.Errorf("ParseTraceID(%q) = %d, %v; want %d", s, got, err, id)
		}
	}
	// Leading zeros are optional on input.
	if got, err := ParseTraceID("ff"); err != nil || got != 255 {
		t.Errorf("ParseTraceID(ff) = %d, %v", got, err)
	}
	if _, err := ParseTraceID("not-hex"); err == nil {
		t.Error("ParseTraceID accepted garbage")
	}
	if _, err := ParseTraceID(""); err == nil {
		t.Error("ParseTraceID accepted the empty string")
	}
}

func TestTraceTableLifecycle(t *testing.T) {
	tab := NewTraceTable(8)
	tab.Begin(7, "cab", 3, 5, "direct", 1000, &TraceStage{Name: "wal_commit", AtUnixMicro: 1500})

	// A window whose range misses the slot links nothing.
	if linked := tab.StageWindow(0, 10, 20, 2000); len(linked) != 0 {
		t.Errorf("out-of-range window linked %v", linked)
	}
	// The covering window claims the trace and returns its id.
	linked := tab.StageWindow(1, 0, 10, 2500)
	if len(linked) != 1 || linked[0] != 7 {
		t.Fatalf("linked = %v, want [7]", linked)
	}
	// A later overlapping window must not claim it again: freshness is
	// defined against the first close that could detect on the report.
	if linked := tab.StageWindow(2, 0, 10, 3000); len(linked) != 0 {
		t.Errorf("second window re-claimed %v", linked)
	}
	tab.StageDetect(1, 2, 3500)
	tab.StagePublish(1, 4000)
	tab.StageDetect(9, 0, 9999) // unrelated seq: no-op

	tr, ok := tab.Lookup(7)
	if !ok {
		t.Fatal("trace 7 not retained")
	}
	if tr.WindowSeq != 1 || tr.Fleet != "cab" || tr.Origin != "direct" {
		t.Errorf("trace = %+v", tr)
	}
	want := []string{"ingest", "wal_commit", "window_close", "detect", "publish"}
	if len(tr.Stages) != len(want) {
		t.Fatalf("stages = %+v, want %v", tr.Stages, want)
	}
	for i, s := range tr.Stages {
		if s.Name != want[i] {
			t.Errorf("stage %d = %q, want %q", i, s.Name, want[i])
		}
	}

	// Reopening a retained id (replay) keeps the linked original.
	tab.Begin(7, "cab", 3, 5, "direct", 777, nil)
	tr, _ = tab.Lookup(7)
	if tr.WindowSeq != 1 || tr.Stages[0].AtUnixMicro != 1000 {
		t.Errorf("replay Begin reset the trace: %+v", tr)
	}

	// Lookup returns a deep copy: mutating it must not leak back.
	tr.Stages[0].Name = "tampered"
	if again, _ := tab.Lookup(7); again.Stages[0].Name != "ingest" {
		t.Error("Lookup returned a shared slice")
	}
}

// TestStageWindowLinksInBeginOrder pins the window exemplar: StageWindow
// returns the linked IDs in Begin order, so linked[0] is the oldest trace
// the window claims, whatever the map's iteration order. IDs are begun out
// of numeric order, after a table's worth of traces has been evicted.
func TestStageWindowLinksInBeginOrder(t *testing.T) {
	const depth = 16
	for run := 0; run < 20; run++ {
		tab := NewTraceTable(depth)
		for i := 0; i < 2*depth; i++ {
			tab.Begin(uint64(1000+i), "cab", 0, 100+i, "direct", 1, nil)
		}
		var want []uint64
		for i := 0; i < depth; i++ {
			id := uint64((i*7)%depth + 1) // 1, 8, 15, 6, ...: a permutation of 1..16
			tab.Begin(id, "cab", i, i, "direct", 2, nil)
			want = append(want, id)
		}
		got := tab.StageWindow(0, 0, depth, 3)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("run %d: linked %v, want Begin order %v", run, got, want)
		}
	}
}

func TestTraceTableEviction(t *testing.T) {
	tab := NewTraceTable(4)
	for id := uint64(1); id <= 10; id++ {
		tab.Begin(id, "cab", 0, int(id), "direct", int64(id), nil)
	}
	if got := tab.Len(); got != 4 {
		t.Errorf("Len = %d, want 4", got)
	}
	for id := uint64(1); id <= 6; id++ {
		if _, ok := tab.Lookup(id); ok {
			t.Errorf("evicted trace %d still retained", id)
		}
	}
	snap := tab.Snapshot()
	if len(snap) != 4 || snap[0].ID != TraceIDString(10) || snap[3].ID != TraceIDString(7) {
		t.Errorf("snapshot = %+v, want ids 10..7 newest first", snap)
	}

	// Depth 0 disables retention entirely.
	off := NewTraceTable(0)
	off.Begin(1, "cab", 0, 0, "direct", 1, nil)
	if off.Len() != 0 {
		t.Error("disabled table retained a trace")
	}
	// And a nil table ignores everything.
	var nilTab *TraceTable
	nilTab.Begin(1, "x", 0, 0, "direct", 1, &TraceStage{Name: "s", AtUnixMicro: 2})
	if nilTab.Len() != 0 || nilTab.Snapshot() != nil {
		t.Error("nil table misbehaved")
	}
}

// TestTraceTableConcurrentWindowCloses hammers one table from many
// goroutines playing the engine's roles at once — doors beginning traces,
// shards closing overlapping windows, stage appends, and readers
// snapshotting mid-eviction. Run under -race (CI does) this pins the
// locking; the invariant checked here is single-claim: every trace is
// linked by exactly one window even when closes race. The goroutines share
// one timeline and, as in the engine, open traces and close windows under
// the shard's lock, reading the close time inside it.
func TestTraceTableConcurrentWindowCloses(t *testing.T) {
	const (
		writers = 8
		perW    = 200
		depth   = 64
	)
	tab := NewTraceTable(depth)
	var (
		wg      sync.WaitGroup
		shardMu sync.Mutex
		clock   atomic.Int64
		begun   []uint64 // Begin order, under shardMu
	)
	claims := make([][]uint64, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				id := uint64(g*perW + i + 1)
				slot := int(id % 50)
				ingest, commit := clock.Add(1), clock.Add(1)
				shardMu.Lock()
				tab.Begin(id, fmt.Sprintf("fleet-%d", g), g, slot, "router", ingest,
					&TraceStage{Name: "wal_commit", AtUnixMicro: commit})
				begun = append(begun, id)
				shardMu.Unlock()
				// Overlapping closes: [0,50) from every goroutine, racing to
				// claim whatever is currently unclaimed.
				shardMu.Lock()
				claims[g] = append(claims[g], tab.StageWindow(g, 0, 50, clock.Add(1))...)
				shardMu.Unlock()
				tab.StageDetect(g, 0, clock.Add(1))
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			tab.Snapshot()
			tab.Lookup(uint64(i))
			tab.Len()
		}
	}()
	wg.Wait()
	<-done

	// No trace was claimed twice across all racing closes.
	seen := map[uint64]int{}
	for g := range claims {
		for _, id := range claims[g] {
			seen[id]++
		}
	}
	for id, n := range seen {
		if n > 1 {
			t.Errorf("trace %d claimed by %d windows", id, n)
		}
	}
	if tab.Len() != depth {
		t.Errorf("Len = %d, want %d after sustained eviction", tab.Len(), depth)
	}
	// Eviction was FIFO across the interleaved Begins: exactly the last
	// depth traces begun survive.
	for i, id := range begun {
		if _, ok := tab.Lookup(id); ok != (i >= len(begun)-depth) {
			t.Fatalf("trace %d (begun #%d of %d): retained %v", id, i, len(begun), ok)
		}
	}
	// Every retained trace is internally consistent: stages in time order,
	// and a window_close stage iff the trace was claimed.
	for _, tr := range tab.Snapshot() {
		hasClose := false
		for i, s := range tr.Stages {
			if s.Name == "window_close" {
				hasClose = true
			}
			if i > 0 && s.AtUnixMicro < tr.Stages[i-1].AtUnixMicro {
				t.Errorf("trace %s stages out of order: %+v", tr.ID, tr.Stages)
				break
			}
		}
		if hasClose != (tr.WindowSeq >= 0) {
			t.Errorf("trace %s: window_close stage %v but seq %d", tr.ID, hasClose, tr.WindowSeq)
		}
	}
}

// BenchmarkTraceTableBegin measures opening one stamped report's trace at
// the default per-fleet depth, with its wal_commit stage, once the table
// is full: every Begin evicts the oldest trace. Replay and live ingest pay
// it per stamped report; it should allocate nothing.
func BenchmarkTraceTableBegin(b *testing.B) {
	const depth = 64
	tab := NewTraceTable(depth)
	commit := &TraceStage{AtUnixMicro: 2}
	for i := 0; i < depth; i++ {
		tab.Begin(uint64(i+1), "cab", i%16, i/16, "router", 1, commit)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(depth + i + 1)
		tab.Begin(id, "cab", i%16, i/16, "router", 1, commit)
	}
}
