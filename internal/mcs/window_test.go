package mcs

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"itscs/internal/fault"
)

// orderedSink is a first-write-wins ingestor that records, per fleet, the
// slots it accepted in arrival order.
type orderedSink struct {
	mu       sync.Mutex
	accepted map[string][]int
	seen     map[Report]bool
}

func newOrderedSink() *orderedSink {
	return &orderedSink{accepted: map[string][]int{}, seen: map[Report]bool{}}
}

func (s *orderedSink) Ingest(r Report) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := Report{Fleet: r.Fleet, Participant: r.Participant, Slot: r.Slot}
	if s.seen[key] {
		return fmt.Errorf("%w: %s slot %d", ErrDuplicateReport, r.Fleet, r.Slot)
	}
	s.seen[key] = true
	s.accepted[r.Fleet] = append(s.accepted[r.Fleet], r.Slot)
	return nil
}

// windowStream interleaves fleets slot by slot: fleet f's reports carry
// slots 0..slots-1 in order.
func windowStream(fleets, slots int) []Report {
	out := make([]Report, 0, fleets*slots)
	for s := 0; s < slots; s++ {
		for f := 0; f < fleets; f++ {
			out = append(out, Report{Fleet: fmt.Sprintf("f%d", f), Slot: s, X: float64(s), Y: 1})
		}
	}
	return out
}

func sendAll(t *testing.T, cl *Client, rs []Report) {
	t.Helper()
	for _, r := range rs {
		if err := cl.Send(r); err != nil {
			t.Fatal(err)
		}
	}
}

func flushWithin(t *testing.T, cl *Client, d time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	if err := cl.Flush(ctx); err != nil {
		t.Fatalf("flush: %v (stats %+v)", err, cl.Stats())
	}
}

// gatedDial holds the client's first dial until release closes, so the
// whole stream queues up and the first window goes out full; plan wraps
// that first connection.
func gatedDial(release <-chan struct{}, plan fault.ConnPlan) func(string) (net.Conn, error) {
	var (
		mu    sync.Mutex
		dials int
	)
	return func(addr string) (net.Conn, error) {
		<-release
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		if dials++; dials == 1 {
			return fault.WrapConn(conn, plan), nil
		}
		return conn, nil
	}
}

// checkRecovered asserts the outcome of a cut stream: every report
// delivered and none dropped, the cut healed by a reconnect and a re-send,
// and each fleet's slots accepted exactly once, in order.
func checkRecovered(t *testing.T, cl *Client, sink *orderedSink, fleets, slots int) {
	t.Helper()
	flushWithin(t, cl, 30*time.Second)
	st := cl.Stats()
	if st.Enqueued != st.Acked+st.Rejected+st.Dropped {
		t.Fatalf("counters do not conserve: %+v", st)
	}
	if st.Dropped != 0 || st.Acked+st.Rejected != uint64(fleets*slots) {
		t.Fatalf("stats = %+v, want all %d delivered, none dropped", st, fleets*slots)
	}
	if st.Reconnects < 1 || st.Retries < 1 {
		t.Fatalf("stats = %+v, want the cut to force a reconnect and a re-send", st)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for f := 0; f < fleets; f++ {
		got := sink.accepted[fmt.Sprintf("f%d", f)]
		if len(got) != slots {
			t.Fatalf("fleet f%d: server accepted %d reports, want %d", f, len(got), slots)
		}
		for i, s := range got {
			if s != i {
				t.Fatalf("fleet f%d: accepted slot %d at position %d: order broken", f, s, i)
			}
		}
	}
}

// TestClientWindowUplinkCut severs the first connection partway through
// writing a full window: the client re-sends the unacked suffix on a fresh
// connection, nothing acked is lost, each fleet's reports are accepted in
// slot order, and the counters conserve.
func TestClientWindowUplinkCut(t *testing.T) {
	sink := newOrderedSink()
	addr := startServer(t, sink)
	opt := fastClientOptions()
	release := make(chan struct{})
	// About 100 report frames in: well inside the first window.
	opt.Dial = gatedDial(release, fault.ConnPlan{Seed: 3, CutAfterBytes: 4000})
	cl := NewClient(addr, opt)
	defer cl.Close()

	const fleets, slots = 4, 200
	sendAll(t, cl, windowStream(fleets, slots))
	close(release)
	checkRecovered(t, cl, sink, fleets, slots)
}

// countingConn closes full once n bytes have been written through it.
type countingConn struct {
	net.Conn
	mu   sync.Mutex
	n    int
	full chan struct{}
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n > 0 {
		if c.n -= n; c.n <= 0 {
			close(c.full)
		}
	}
	return n, err
}

// readGate holds the first read until open closes.
type readGate struct {
	net.Conn
	open <-chan struct{}
}

func (g readGate) Read(p []byte) (int, error) {
	<-g.open
	return g.Conn.Read(p)
}

// TestClientWindowDownlinkCut lets a full window land on the server and
// then cuts the connection on the ack path, 30 acks in: the client must
// re-send the unacked suffix, which the server partly ingested already
// (those come back refused as duplicates), with nothing lost or reordered.
// The stream is exactly one window, so after the first acks there is
// nothing new to write and the failure surfaces while reading acks.
func TestClientWindowDownlinkCut(t *testing.T) {
	const fleets, slots = 4, window / 4
	rs := windowStream(fleets, slots)
	// The bytes the client writes on its first connection: the preamble,
	// then one frame per report.
	var wire bytes.Buffer
	wire.WriteString(binaryPreamble)
	fr := newFrame(&wire)
	for _, r := range rs {
		if err := fr.queueReport(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := fr.flush(); err != nil {
		t.Fatal(err)
	}
	total := wire.Len()
	written := make(chan struct{})

	sink := newOrderedSink()
	srv := NewServer(sink)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var served sync.WaitGroup
	defer func() {
		_ = ln.Close()
		_ = srv.Close()
		served.Wait()
	}()
	go func() {
		for first := true; ; first = false {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if first {
				// The server reads nothing until the client's whole window
				// is written, then dies 30 acks into answering it.
				conn = fault.WrapConn(readGate{conn, written}, fault.ConnPlan{Seed: 4, CutAfterBytes: 90})
			}
			served.Add(1)
			go func() {
				defer served.Done()
				srv.ServeConn(conn)
			}()
		}
	}()

	opt := fastClientOptions()
	release := make(chan struct{})
	dial := gatedDial(release, fault.ConnPlan{})
	first := true
	opt.Dial = func(addr string) (net.Conn, error) {
		conn, err := dial(addr)
		if err == nil && first {
			first = false
			conn = &countingConn{Conn: conn, n: total, full: written}
		}
		return conn, err
	}
	cl := NewClient(ln.Addr().String(), opt)
	defer cl.Close()
	sendAll(t, cl, rs)
	close(release)
	checkRecovered(t, cl, sink, fleets, slots)
	if st := cl.Stats(); st.Rejected == 0 {
		t.Errorf("stats = %+v: no re-sent report was refused, so the cut landed before the server ingested", st)
	}
}

// TestClientWindowFaultFreeCounts pins the counters of a clean run across
// several windows: every report is written exactly once, nothing retries.
func TestClientWindowFaultFreeCounts(t *testing.T) {
	sink := newOrderedSink()
	addr := startServer(t, sink)
	opt := fastClientOptions()
	opt.QueueDepth = 8 * window // the whole stream fits: no drop-oldest
	cl := NewClient(addr, opt)
	defer cl.Close()

	rs := windowStream(3, window+100) // four full windows and then some
	sendAll(t, cl, rs)
	sendAll(t, cl, rs[:10]) // duplicates: delivered, refused
	flushWithin(t, cl, 30*time.Second)

	st := cl.Stats()
	if st.Acked != uint64(len(rs)) || st.Rejected != 10 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want %d acked / 10 rejected / 0 dropped", st, len(rs))
	}
	if st.Sent != st.Acked+st.Rejected {
		t.Errorf("sent %d != acked %d + rejected %d: a report was written twice", st.Sent, st.Acked, st.Rejected)
	}
	if st.Retries != 0 || st.Reconnects != 0 {
		t.Errorf("stats = %+v, want no retries or reconnects on a clean link", st)
	}
}

// TestClientWindowStallGetsAcks fills one window and then sends nothing
// more: the server must flush every ack once it runs out of input, so the
// client never waits on a withheld ack (the ack timeout is far longer than
// the flush deadline, so a reconnect cannot mask one).
func TestClientWindowStallGetsAcks(t *testing.T) {
	sink := newOrderedSink()
	addr := startServer(t, sink)
	opt := fastClientOptions()
	opt.AckTimeout = time.Minute
	release := make(chan struct{})
	opt.Dial = func(addr string) (net.Conn, error) {
		<-release
		return net.Dial("tcp", addr)
	}
	cl := NewClient(addr, opt)
	defer cl.Close()

	sendAll(t, cl, windowStream(1, window))
	close(release)
	flushWithin(t, cl, 2*time.Second)
	if st := cl.Stats(); st.Acked != window || st.Retries != 0 {
		t.Fatalf("stats = %+v, want %d acked with no retries", st, window)
	}
}

// TestClientWindowCloseDropsInFlight closes a client whose full window sits
// unanswered on a peer that never acks: every in-flight and queued report
// is counted dropped.
func TestClientWindowCloseDropsInFlight(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				_, _ = io.Copy(io.Discard, conn) // swallow reports, never ack
			}()
		}
	}()

	opt := fastClientOptions()
	opt.AckTimeout = time.Minute
	release := make(chan struct{})
	opt.Dial = func(addr string) (net.Conn, error) {
		<-release
		return net.Dial("tcp", addr)
	}
	cl := NewClient(ln.Addr().String(), opt)
	const queued = 10
	sendAll(t, cl, windowStream(1, window+queued))
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for cl.Stats().Sent < window {
		if time.Now().After(deadline) {
			t.Fatalf("window never filled: %+v", cl.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	st := cl.Stats()
	if st.Sent != window || st.Acked+st.Rejected != 0 {
		t.Fatalf("stats = %+v, want exactly one unanswered window", st)
	}
	if st.Dropped != window+queued || st.Enqueued != st.Dropped {
		t.Fatalf("stats = %+v, want all %d in-flight and queued reports dropped", st, window+queued)
	}
}

// TestReadAckLongReason reads a rejection longer than the ack reader's
// buffer (a refusal that quotes a long fleet name) and the ack after it.
func TestReadAckLongReason(t *testing.T) {
	reason := strings.Repeat("x", 10000)
	fr := newFrame(struct {
		io.Reader
		io.Writer
	}{strings.NewReader("err " + reason + "\r\nok\n"), io.Discard})
	if ok, got, err := fr.readAck(); err != nil || ok || got != reason {
		t.Fatalf("readAck = %v, %d-byte reason, %v; want a %d-byte rejection", ok, len(got), err, len(reason))
	}
	if ok, _, err := fr.readAck(); err != nil || !ok {
		t.Fatalf("second readAck = %v, %v; want ok", ok, err)
	}
	if _, _, err := fr.readAck(); err != io.ErrUnexpectedEOF {
		t.Fatalf("readAck at EOF = %v, want io.ErrUnexpectedEOF", err)
	}
}
