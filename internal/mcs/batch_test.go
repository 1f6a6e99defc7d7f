package mcs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// batchSink is a sink that also takes batches, recording each call's size.
type batchSink struct {
	*sink
	mu    sync.Mutex
	calls []int
}

func (b *batchSink) IngestBatch(rs []Report, errs []error) {
	b.mu.Lock()
	b.calls = append(b.calls, len(rs))
	b.mu.Unlock()
	for i, r := range rs {
		errs[i] = b.sink.Ingest(r)
	}
}

func (b *batchSink) callSizes() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]int(nil), b.calls...)
}

// exchange writes every line in one write and reads one ack per line.
func exchange(t *testing.T, addr string, lines []string) []string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte(strings.Join(lines, "\n") + "\n")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	acks := make([]string, len(lines))
	for i := range acks {
		if acks[i], err = br.ReadString('\n'); err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
	}
	return acks
}

func reportLine(t *testing.T, r Report) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServerBatchAcksInLineOrder sends accepted, rejected and undecodable
// lines in one write: acks come back one per line in line order, with the
// bad-JSON lines in their own positions, whether the ingestor takes the
// reports as one batch or one Ingest call per line.
func TestServerBatchAcksInLineOrder(t *testing.T) {
	lines := []string{
		reportLine(t, Report{Participant: 0, Slot: 0, X: 1}),
		reportLine(t, Report{Participant: 0, Slot: 0, X: 2}), // duplicate
		"not json at all",
		reportLine(t, Report{Participant: 9, Slot: 0}), // out of range
		reportLine(t, Report{Participant: 1, Slot: 1, X: 3}),
		"{",
		reportLine(t, Report{Participant: 2, Slot: 2, X: 4}),
	}
	want := []string{"ok", "err mcs: duplicate report", "err bad json", "err participant 9", "ok", "err bad json", "ok"}
	check := func(name string, acks []string) {
		t.Helper()
		for i, ack := range acks {
			if !strings.HasPrefix(ack, want[i]) || !strings.HasSuffix(ack, "\n") {
				t.Errorf("%s: ack %d = %q, want prefix %q", name, i, ack, want[i])
			}
		}
	}

	batched := &batchSink{sink: newSink(4, 4)}
	check("batch ingestor", exchange(t, startServer(t, batched), lines))
	calls := batched.callSizes()
	total := 0
	for _, n := range calls {
		total += n
	}
	if total != 5 || len(calls) >= total {
		t.Errorf("IngestBatch calls %v: want the 5 decoded reports in fewer calls than reports", calls)
	}

	plain := newSink(4, 4)
	check("per-line ingestor", exchange(t, startServer(t, plain), lines))
	if accepted, rejected := plain.counts(); accepted+rejected != 5 {
		t.Errorf("per-line ingestor saw %d Ingest calls, want one per decoded line (5)", accepted+rejected)
	}
}

// TestServerBatchCap streams more lines than one batch may hold in one
// write: no IngestBatch call exceeds maxBatch reports, and every line is
// acked in order.
func TestServerBatchCap(t *testing.T) {
	const n = 3*maxBatch + 7
	b := &batchSink{sink: newSink(1, n)}
	lines := make([]string, n)
	for i := range lines {
		lines[i] = reportLine(t, Report{Slot: i, X: float64(i)})
	}
	for i, ack := range exchange(t, startServer(t, b), lines) {
		if ack != "ok\n" {
			t.Fatalf("ack %d = %q", i, ack)
		}
	}
	total := 0
	for _, size := range b.callSizes() {
		if size > maxBatch {
			t.Errorf("IngestBatch got %d reports, cap is %d", size, maxBatch)
		}
		total += size
	}
	if total != n {
		t.Errorf("ingested %d of %d", total, n)
	}
	if accepted, _ := b.counts(); accepted != n {
		t.Errorf("accepted %d of %d", accepted, n)
	}
}

// TestServerDropsTricklingPeer pins the idle contract against a peer that
// keeps the connection busy without ever finishing a line: it sends one
// byte every IdleTimeout/4. Bytes are not reports, so the peer must be
// dropped about IdleTimeout after its last complete line.
func TestServerDropsTricklingPeer(t *testing.T) {
	const idle = 200 * time.Millisecond
	addr := startIdleServer(t, newSink(2, 10), idle)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintln(conn, reportLine(t, Report{Participant: 0, Slot: 0, X: 1})); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if ack, err := br.ReadString('\n'); err != nil || ack != "ok\n" {
		t.Fatalf("ack = %q, %v", ack, err)
	}
	start := time.Now()

	partial := reportLine(t, Report{Participant: 1, Slot: 1, X: 2})
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(idle / 4):
			}
			if _, err := conn.Write([]byte{partial[i%len(partial)]}); err != nil {
				return
			}
		}
	}()

	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server answers the fragment it holds when it drops the peer
	// (a torn line does not decode), then closes.
	for {
		var ack string
		if ack, err = br.ReadString('\n'); err != nil {
			break
		}
		if ack != "err bad json\n" {
			t.Fatalf("ack %q for a line the peer never finished", ack)
		}
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("client read deadline fired first: the trickle kept the connection open")
	}
	if waited := time.Since(start); waited > 3*idle {
		t.Errorf("trickling peer dropped after %v, want about the %v idle timeout", waited, idle)
	}
}
