package mcs

import (
	"bufio"
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// startServer spins up a loopback server and returns its address and a
// cleanup-registered shutdown.
func startServer(t *testing.T, c Ingestor) string {
	t.Helper()
	srv := NewServer(c)
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

func TestServerIngestsReports(t *testing.T) {
	c := newSink(4, 6)
	addr := startServer(t, c)
	reports := []Report{
		{Participant: 0, Slot: 0, X: 1, Y: 2, VX: 0.5, VY: -0.5},
		{Participant: 1, Slot: 0, X: 3, Y: 4},
		{Participant: 0, Slot: 1, X: 5, Y: 6},
	}
	acked, err := SendReports(context.Background(), addr, reports)
	if err != nil {
		t.Fatal(err)
	}
	if acked != 3 {
		t.Fatalf("acked %d of 3", acked)
	}
	if got, _ := c.counts(); got != 3 {
		t.Fatalf("sink accepted %d", got)
	}
	if c.at(0, 1).X != 5 || c.at(1, 0).Y != 4 {
		t.Fatal("report content lost in transport")
	}
}

func TestServerRejectsWithoutAborting(t *testing.T) {
	c := newSink(2, 2)
	addr := startServer(t, c)
	reports := []Report{
		{Participant: 0, Slot: 0, X: 1},
		{Participant: 0, Slot: 0, X: 2}, // duplicate
		{Participant: 9, Slot: 0},       // out of range
		{Participant: 1, Slot: 1, X: 3}, // fine
	}
	acked, err := SendReports(context.Background(), addr, reports)
	if err != nil {
		t.Fatal(err)
	}
	if acked != 2 {
		t.Fatalf("acked %d, want 2", acked)
	}
	if accepted, rejected := c.counts(); accepted != 2 || rejected != 2 {
		t.Fatalf("counters = %d/%d", accepted, rejected)
	}
}

func TestServerHandlesBadJSON(t *testing.T) {
	c := newSink(2, 2)
	addr := startServer(t, c)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("not json at all\n")); err != nil {
		t.Fatal(err)
	}
	reply, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(reply, "err") {
		t.Fatalf("want error reply, got %q", reply)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	const clients = 8
	const slots = 20
	c := newSink(clients, slots)
	addr := startServer(t, c)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for p := 0; p < clients; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			reports := make([]Report, slots)
			for s := 0; s < slots; s++ {
				reports[s] = Report{Participant: p, Slot: s, X: float64(p), Y: float64(s)}
			}
			if _, err := SendReports(context.Background(), addr, reports); err != nil {
				errs <- err
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, _ := c.counts(); got != clients*slots {
		t.Fatalf("accepted %d of %d", got, clients*slots)
	}
}

func TestSendReportsContextCancel(t *testing.T) {
	c := newSink(1, 1)
	addr := startServer(t, c)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SendReports(ctx, addr, []Report{{Participant: 0, Slot: 0}}); err == nil {
		t.Fatal("cancelled context should fail")
	}
}

func TestSendReportsDialFailure(t *testing.T) {
	if _, err := SendReports(context.Background(), "127.0.0.1:1", nil); err == nil {
		t.Fatal("dial to closed port should fail")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	c := newSink(1, 1)
	srv := NewServer(c)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	// Prove the accept loop is live with a real round-trip instead of
	// sleeping: an acknowledged upload means a handler ran.
	if _, err := SendReports(context.Background(), addr.String(), []Report{{Participant: 0, Slot: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v", err)
	}
}

func TestServeBeforeListen(t *testing.T) {
	srv := NewServer(nil)
	if err := srv.Serve(); err == nil {
		t.Fatal("Serve before Listen should fail")
	}
}
