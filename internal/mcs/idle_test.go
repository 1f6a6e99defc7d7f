package mcs

import (
	"bufio"
	"encoding/json"
	"net"
	"testing"
	"time"
)

// startIdleServer is startServer with a custom idle timeout.
func startIdleServer(t *testing.T, c *sink, idle time.Duration) string {
	t.Helper()
	srv := NewServer(c)
	srv.IdleTimeout = idle
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close server: %v", err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("serve: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("server did not stop")
		}
	})
	return addr.String()
}

// TestServerDropsStalledConnection verifies that a client that connects and
// then goes silent is disconnected after the idle timeout instead of
// pinning its handler goroutine and connection slot forever.
func TestServerDropsStalledConnection(t *testing.T) {
	c := newSink(2, 10)
	addr := startIdleServer(t, c, 100*time.Millisecond)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// One good report first: the timeout must reset per line, not cap the
	// connection's total lifetime.
	if err := json.NewEncoder(conn).Encode(Report{Participant: 0, Slot: 0, X: 1, Y: 2}); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if line != "ok\n" {
		t.Fatalf("ack = %q, want ok", line)
	}

	// Now stall. The server must close the connection, which surfaces to the
	// client as EOF (or a reset) well before the generous read deadline.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := br.ReadString('\n'); err == nil {
		t.Fatal("expected the server to drop the stalled connection")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("client read deadline fired first: server never dropped the connection")
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Errorf("drop took %v, want well under the client deadline", waited)
	}
}

// TestServerIdleTimeoutDisabled pins the opt-out: with IdleTimeout zero a
// silent connection stays open (bounded here by a short observation
// window, not forever, obviously).
func TestServerIdleTimeoutDisabled(t *testing.T) {
	c := newSink(2, 10)
	addr := startIdleServer(t, c, 0)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	_, err = conn.Read(buf)
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Fatalf("expected the client deadline to fire on a still-open connection, got %v", err)
	}
}
