package mcs

import (
	"encoding/json"
	"net"
	"testing"
	"time"

	"itscs/internal/fault"
)

// TestServeConnMidFrameCut severs the transport in the middle of the second
// report line and checks the server keeps everything that arrived whole: the
// partial frame is discarded, the handler exits cleanly, and no goroutine or
// connection slot leaks.
func TestServeConnMidFrameCut(t *testing.T) {
	c := newSink(4, 8)
	srv := NewServer(c)
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		srv.ServeConn(server)
		close(done)
	}()

	line1, err := json.Marshal(Report{Participant: 0, Slot: 0, X: 1, Y: 2})
	if err != nil {
		t.Fatal(err)
	}
	line2, err := json.Marshal(Report{Participant: 1, Slot: 0, X: 3, Y: 4})
	if err != nil {
		t.Fatal(err)
	}
	payload := append(append(line1, '\n'), line2...)
	payload = append(payload, '\n')
	// Cut inside the second line: the first report arrives whole, the
	// second is a torn frame followed by EOF.
	cut := len(line1) + 1 + len(line2)/2
	fc := fault.WrapConn(client, fault.ConnPlan{Seed: 5, CutAfterBytes: int64(cut)})

	if n, err := fc.Write(payload); err == nil || n != cut {
		t.Fatalf("write across the cut: n=%d err=%v, want n=%d and an injected error", n, err, cut)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not exit after the transport was cut")
	}
	if got, _ := c.counts(); got != 1 {
		t.Fatalf("accepted %d reports, want exactly the one delivered before the cut", got)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close after cut connection: %v", err)
	}
}

// TestServeConnIdleStall checks the idle timeout reaps a client that goes
// silent mid-stream, so a stalled uplink cannot pin its handler forever.
func TestServeConnIdleStall(t *testing.T) {
	c := newSink(2, 2)
	srv := NewServer(c)
	srv.IdleTimeout = 50 * time.Millisecond
	client, server := net.Pipe()
	defer client.Close()
	done := make(chan struct{})
	go func() {
		srv.ServeConn(server)
		close(done)
	}()

	// Deliver one good report, then stall: the handler must exit on its own.
	line, err := json.Marshal(Report{Participant: 0, Slot: 0, X: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(append(line, '\n')); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if _, err := client.Read(buf); err != nil {
		t.Fatalf("read ack: %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("idle timeout did not reap the stalled connection")
	}
	if got, _ := c.counts(); got != 1 {
		t.Fatalf("accepted %d, want 1", got)
	}
}
