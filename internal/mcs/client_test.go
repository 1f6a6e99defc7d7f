package mcs

import (
	"context"
	"net"
	"testing"
	"time"

	"itscs/internal/fault"
	"itscs/internal/stat"
)

// fastClientOptions keeps test reconnect loops snappy.
func fastClientOptions() ClientOptions {
	return ClientOptions{
		BackoffMin: time.Millisecond,
		BackoffMax: 20 * time.Millisecond,
		AckTimeout: 2 * time.Second,
	}
}

func TestClientDeliversAndCounts(t *testing.T) {
	c := newSink(4, 8)
	addr := startServer(t, c)
	cl := NewClient(addr, fastClientOptions())
	defer cl.Close()

	for s := 0; s < 4; s++ {
		if err := cl.Send(Report{Participant: 1, Slot: s, X: 1, Y: 2}); err != nil {
			t.Fatal(err)
		}
	}
	// A duplicate and an out-of-range report: delivered, refused, counted.
	if err := cl.Send(Report{Participant: 1, Slot: 0, X: 1, Y: 2}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Send(Report{Participant: 99, Slot: 0}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cl.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := cl.Stats()
	if st.Acked != 4 || st.Rejected != 2 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want 4 acked / 2 rejected / 0 dropped", st)
	}
	if st.Enqueued != st.Acked+st.Rejected+st.Dropped {
		t.Fatalf("counters do not conserve: %+v", st)
	}
	if got, _ := c.counts(); got != 4 {
		t.Fatalf("server accepted %d, want 4", got)
	}
}

// TestClientReconnectsAcrossServerRestart is the reconnect contract: a
// backend that dies mid-stream and comes back on the same address receives
// the rest of the stream with no report lost.
func TestClientReconnectsAcrossServerRestart(t *testing.T) {
	c1 := newSink(2, 100)
	srv1 := NewServer(c1)
	addr, err := srv1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done1 := make(chan error, 1)
	go func() { done1 <- srv1.Serve() }()

	cl := NewClient(addr.String(), fastClientOptions())
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for s := 0; s < 10; s++ {
		if err := cl.Send(Report{Participant: 0, Slot: s, X: 1, Y: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// Kill the backend; the next sends pile into the client's queue while it
	// redials with backoff.
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done1; err != nil {
		t.Fatal(err)
	}
	for s := 10; s < 20; s++ {
		if err := cl.Send(Report{Participant: 0, Slot: s, X: 1, Y: 1}); err != nil {
			t.Fatal(err)
		}
	}

	// Restart on the same address; the client must find it and drain.
	c2 := newSink(2, 100)
	srv2 := NewServer(c2)
	if _, err := srv2.Listen(addr.String()); err != nil {
		t.Fatal(err)
	}
	done2 := make(chan error, 1)
	go func() { done2 <- srv2.Serve() }()
	t.Cleanup(func() {
		if err := srv2.Close(); err != nil {
			t.Errorf("close srv2: %v", err)
		}
		if err := <-done2; err != nil {
			t.Errorf("serve srv2: %v", err)
		}
	})

	if err := cl.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := cl.Stats()
	if st.Acked != 20 || st.Dropped != 0 {
		t.Fatalf("stats after restart = %+v, want 20 acked / 0 dropped", st)
	}
	if st.Dials < 2 {
		t.Errorf("dials = %d, want at least 2 (one per server life)", st.Dials)
	}
	if got, _ := c2.counts(); got != 10 {
		t.Fatalf("second life accepted %d, want 10", got)
	}
}

// TestClientRetriesAfterMidStreamCut severs the connection mid-stream with
// the fault harness: the client must reconnect and re-send the unacked
// report, and the server's duplicate rejection absorbs any double delivery.
func TestClientRetriesAfterMidStreamCut(t *testing.T) {
	c := newSink(2, 200)
	addr := startServer(t, c)

	opt := fastClientOptions()
	dials := 0
	opt.Dial = func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		dials++
		if dials == 1 {
			// First connection dies after ~6 report lines.
			return fault.WrapConn(conn, fault.ConnPlan{Seed: 1, CutAfterBytes: 300}), nil
		}
		return conn, nil
	}
	cl := NewClient(addr, opt)
	defer cl.Close()

	const n = 40
	for s := 0; s < n; s++ {
		if err := cl.Send(Report{Participant: 1, Slot: s, X: 3, Y: 4}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cl.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := cl.Stats()
	if st.Acked+st.Rejected != n || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want %d delivered / 0 dropped", st, n)
	}
	if st.Reconnects < 1 || st.Retries < 1 {
		t.Errorf("stats = %+v, want at least one reconnect and retry", st)
	}
	// Every slot must have landed exactly once regardless of retries.
	if got, _ := c.counts(); got != n {
		t.Fatalf("server accepted %d, want %d", got, n)
	}
}

func TestClientDropsOldestWhenQueueFull(t *testing.T) {
	// No server: nothing drains the queue, so sends beyond the depth evict.
	opt := fastClientOptions()
	opt.QueueDepth = 4
	cl := NewClient("127.0.0.1:1", opt) // reserved port: dials fail fast
	defer cl.Close()

	const n = 20
	for s := 0; s < n; s++ {
		if err := cl.Send(Report{Participant: 0, Slot: s}); err != nil {
			t.Fatal(err)
		}
	}
	st := cl.Stats()
	// The queue holds 4 and at most one report is in flight; everything
	// else must have been evicted oldest-first, not blocked on.
	if st.Enqueued != n {
		t.Fatalf("enqueued = %d, want %d", st.Enqueued, n)
	}
	if st.Dropped < uint64(n-opt.QueueDepth-1) {
		t.Fatalf("dropped = %d, want at least %d", st.Dropped, n-opt.QueueDepth-1)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	st = cl.Stats()
	if st.Acked+st.Rejected+st.Dropped != st.Enqueued {
		t.Fatalf("counters do not conserve after close: %+v", st)
	}
}

func TestClientSendAfterClose(t *testing.T) {
	cl := NewClient("127.0.0.1:1", fastClientOptions())
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Send(Report{}); err != ErrClientClosed {
		t.Fatalf("Send after Close = %v, want ErrClientClosed", err)
	}
	// Flush on a closed client returns immediately: everything the client
	// ever held reached a terminal state (dropped) when Close abandoned it.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := cl.Flush(ctx); err != nil {
		t.Fatalf("Flush after Close = %v, want nil", err)
	}
}

// TestBackoffDelaySchedule pins the pure backoff curve: exponential growth
// from the floor, a hard cap, and jitter confined to [0.5, 1]× the nominal
// delay.
func TestBackoffDelaySchedule(t *testing.T) {
	const lo, hi = 50 * time.Millisecond, 5 * time.Second
	rng := stat.NewRNG(42).Child("test")
	for attempt := 0; attempt < 40; attempt++ {
		nominal := lo << uint(attempt)
		if attempt >= 62 || nominal <= 0 || nominal > hi {
			nominal = hi
		}
		for i := 0; i < 50; i++ {
			d := backoffDelay(attempt, lo, hi, rng)
			if d < lo/2 || d > hi {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, lo/2, hi)
			}
			if d > nominal {
				t.Fatalf("attempt %d: delay %v above nominal %v", attempt, d, nominal)
			}
			if d < nominal/2 {
				t.Fatalf("attempt %d: delay %v below half of nominal %v", attempt, d, nominal)
			}
		}
	}
}

// TestClientBackoffWaitsOnClockSeam proves the reconnect waits ride the
// injected clock: with a virtual clock that never advances, a failing dial
// parks the client in its backoff sleep instead of hot-looping.
func TestClientBackoffWaitsOnClockSeam(t *testing.T) {
	vc := fault.NewVirtualClock(time.Unix(0, 0))
	opt := fastClientOptions()
	opt.Clock = vc
	opt.BackoffMin = time.Minute
	opt.BackoffMax = time.Hour
	dials := make(chan struct{}, 64)
	opt.Dial = func(addr string) (net.Conn, error) {
		dials <- struct{}{}
		return nil, net.ErrClosed
	}
	cl := NewClient("unused", opt)
	defer cl.Close()
	if err := cl.Send(Report{Participant: 0, Slot: 0}); err != nil {
		t.Fatal(err)
	}
	// First dial happens immediately.
	select {
	case <-dials:
	case <-time.After(5 * time.Second):
		t.Fatal("client never dialed")
	}
	// With virtual time frozen there must be no second dial.
	select {
	case <-dials:
		t.Fatal("client redialed without the clock advancing")
	case <-time.After(100 * time.Millisecond):
	}
	// Advancing the clock past the max backoff releases exactly the wait.
	vc.Advance(2 * time.Hour)
	select {
	case <-dials:
	case <-time.After(5 * time.Second):
		t.Fatal("client did not redial after the clock advanced")
	}
}
