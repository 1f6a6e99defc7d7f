package mcs

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"itscs/internal/fault"
	"itscs/internal/stat"
)

// ErrClientClosed is returned by Send after Close.
var ErrClientClosed = errors.New("mcs: client closed")

// ClientOptions parameterizes a Client. The zero value is usable: every
// field has a production default.
type ClientOptions struct {
	// QueueDepth bounds the send buffer (default 1024). When full the
	// oldest queued report is evicted and counted — the same drop-oldest
	// policy the pipeline's dispatch queue uses, chosen for the same
	// reason: a dead or slow backend degrades to data loss at the tail,
	// never to unbounded memory or a blocked producer.
	QueueDepth int
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// WriteTimeout bounds each write of a batch of report lines (default
	// 10s).
	WriteTimeout time.Duration
	// AckTimeout bounds the wait for each acknowledgement line (default
	// 30s). A swallowed write or a hung peer surfaces here and triggers a
	// reconnect instead of pinning the sender forever.
	AckTimeout time.Duration
	// BackoffMin and BackoffMax bound the capped exponential reconnect
	// backoff (defaults 50ms and 5s). Each delay is the doubled base
	// scaled by a seeded jitter draw in [0.5, 1], so a fleet of clients
	// losing one backend does not redial in lockstep.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// Seed drives the jitter draw; clients with distinct seeds desynchronize.
	Seed int64
	// Clock supplies the backoff waits (default the wall clock). The fault
	// harness swaps in a virtual clock; connection I/O deadlines always use
	// wall time because net.Conn deadlines do.
	Clock fault.Clock
	// Dial is the transport seam (default a net.Dialer bounded by
	// DialTimeout). Tests inject in-memory pipes or fault.FlakyConn here.
	Dial func(addr string) (net.Conn, error)
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.AckTimeout <= 0 {
		o.AckTimeout = 30 * time.Second
	}
	if o.BackoffMin <= 0 {
		o.BackoffMin = 50 * time.Millisecond
	}
	if o.BackoffMax < o.BackoffMin {
		o.BackoffMax = 5 * time.Second
		if o.BackoffMax < o.BackoffMin {
			o.BackoffMax = o.BackoffMin
		}
	}
	if o.Clock == nil {
		o.Clock = fault.RealClock()
	}
	return o
}

// ClientStats snapshots a client's counters. They conserve: Enqueued =
// Acked + Rejected + Dropped + QueueDepth + in-flight, where in-flight is
// at most the window of reports written but not yet answered (256).
type ClientStats struct {
	// Enqueued counts reports accepted by Send; Dropped the subset evicted
	// from the full queue or abandoned by Close before delivery.
	Enqueued uint64 `json:"enqueued"`
	Dropped  uint64 `json:"dropped"`
	// Sent counts report writes including retries; Acked reports the server
	// answered "ok", Rejected those it answered "err ..." (duplicates, range
	// errors — delivered but refused, never retried).
	Sent     uint64 `json:"sent"`
	Acked    uint64 `json:"acked"`
	Rejected uint64 `json:"rejected"`
	// Retries counts re-sends: unacked reports written again on a fresh
	// connection after a transport failure.
	Retries uint64 `json:"retries"`
	// Dials counts connection attempts, DialFailures the failed subset, and
	// Reconnects established connections torn down and replaced.
	Dials        uint64 `json:"dials"`
	DialFailures uint64 `json:"dial_failures"`
	Reconnects   uint64 `json:"reconnects"`
	// QueueDepth and QueueCapacity describe the send buffer right now.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
}

// Client maintains one report stream to an mcs server, surviving the
// transport: it dials lazily, keeps a window of reports in flight on the
// connection, reconnects with capped exponential backoff plus seeded
// jitter, re-sends the unacked reports in order after a connection loss
// (the server's duplicate rejection makes the re-send idempotent), and
// buffers sends in a bounded drop-oldest queue so a dead backend never
// blocks the producer. Send never blocks; Flush waits for the buffer to
// drain. All methods are safe for concurrent use.
type Client struct {
	addr string
	opt  ClientOptions
	rng  *stat.RNG

	queue chan Report
	qmu   sync.Mutex // serializes the send-or-drop-oldest dance
	stop  chan struct{}
	done  chan struct{}

	mu      sync.Mutex
	cond    *sync.Cond // broadcast when pending reaches 0 or the client closes
	closed  bool
	pending int // enqueued reports not yet acked/rejected/dropped
	conn    net.Conn

	c struct {
		enqueued, dropped, sent, acked, rejected uint64
		retries, dials, dialFailures, reconnects uint64
	}
}

// NewClient starts a client for the given server address. The connection is
// dialed lazily on the first Send; the caller must Close the client.
func NewClient(addr string, opt ClientOptions) *Client {
	opt = opt.withDefaults()
	c := &Client{
		addr:  addr,
		opt:   opt,
		rng:   stat.NewRNG(opt.Seed).Child("mcs-client"),
		queue: make(chan Report, opt.QueueDepth),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	if c.opt.Dial == nil {
		c.opt.Dial = func(addr string) (net.Conn, error) {
			d := net.Dialer{Timeout: opt.DialTimeout}
			return d.Dial("tcp", addr)
		}
	}
	c.cond = sync.NewCond(&c.mu)
	go c.loop()
	return c
}

// Send buffers one report for delivery. It never blocks: when the queue is
// full the oldest buffered report is evicted and counted under Dropped
// (the report just handed in is accepted). The only error is ErrClientClosed.
func (c *Client) Send(r Report) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClientClosed
	}
	c.c.enqueued++
	c.pending++
	c.mu.Unlock()

	evicted := 0
	c.qmu.Lock()
	for {
		select {
		case c.queue <- r:
			c.qmu.Unlock()
			if evicted > 0 {
				c.settle(evicted, func() { c.c.dropped += uint64(evicted) })
			}
			return nil
		default:
		}
		select {
		case <-c.queue:
			evicted++
		default:
		}
	}
}

// Flush blocks until every buffered report has reached a terminal state
// (acked, rejected, or dropped) or the context ends. With the backend down
// the in-flight reports retry indefinitely, so callers bound Flush with a
// deadline.
func (c *Client) Flush(ctx context.Context) error {
	wake := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer wake()
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.pending > 0 && ctx.Err() == nil && !c.closed {
		c.cond.Wait()
	}
	if ctx.Err() != nil {
		return fmt.Errorf("mcs: flush: %w", ctx.Err())
	}
	if c.pending > 0 {
		return ErrClientClosed
	}
	return nil
}

// Close stops the client, severs the connection, and counts every report
// still buffered (or in flight) as dropped. It is idempotent. Callers that
// need delivery guarantees Flush first.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.done
		return nil
	}
	c.closed = true
	conn := c.conn
	c.conn = nil
	c.mu.Unlock()

	close(c.stop)
	if conn != nil {
		_ = conn.Close() // unblock a read or write in flight
	}
	<-c.done

	// Abandon whatever never reached the wire.
	abandoned := 0
drain:
	for {
		select {
		case <-c.queue:
			abandoned++
		default:
			break drain
		}
	}
	c.mu.Lock()
	c.c.dropped += uint64(abandoned)
	c.pending = 0
	c.cond.Broadcast()
	c.mu.Unlock()
	return nil
}

// Stats snapshots the client's counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ClientStats{
		Enqueued:      c.c.enqueued,
		Dropped:       c.c.dropped,
		Sent:          c.c.sent,
		Acked:         c.c.acked,
		Rejected:      c.c.rejected,
		Retries:       c.c.retries,
		Dials:         c.c.dials,
		DialFailures:  c.c.dialFailures,
		Reconnects:    c.c.reconnects,
		QueueDepth:    len(c.queue),
		QueueCapacity: cap(c.queue),
	}
}

// settle moves n reports out of pending, applies the counter update, and
// wakes Flush waiters when the client goes idle.
func (c *Client) settle(n int, update func()) {
	c.mu.Lock()
	update()
	c.pending -= n
	if c.pending <= 0 {
		c.pending = 0
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// window bounds how many reports one connection keeps in flight: written
// to the wire but not yet answered. The server acks in order, so the oldest
// in-flight report owns the next ack line, and up to window reports share
// one flush and one round trip instead of paying a round trip each.
const window = 256

// loop is the single delivery goroutine: it owns the connection and drains
// the queue in FIFO order, keeping up to window reports in flight, so
// per-fleet slot order is preserved end to end. win holds the unacked
// reports, oldest first.
func (c *Client) loop() {
	defer close(c.done)
	var (
		win    = make([]Report, 0, window)
		wrote  int // win[:wrote] are on the current connection's wire
		resend int // win[:resend] went out on a connection that failed
		fails  int // consecutive transport failures, for backoff
	)
	defer func() {
		// Close abandons whatever is still in flight.
		if n := len(win); n > 0 {
			c.settle(n, func() { c.c.dropped += uint64(n) })
		}
	}()
	fail := func() {
		c.dropConn()
		wrote, resend, fails = 0, len(win), fails+1
	}
	for {
		if len(win) == 0 {
			select {
			case <-c.stop:
				return
			case r := <-c.queue:
				win = append(win, r)
			}
		}
		if fails > 0 && !c.sleep(c.backoff(fails-1)) {
			return
		}
		cs := c.ensureConn()
		if cs == nil {
			return
		}
		// Refill only while connected: during an outage new reports wait in
		// the drop-oldest queue, where they stay visible and evictable.
	refill:
		for len(win) < window {
			select {
			case r := <-c.queue:
				win = append(win, r)
			default:
				break refill
			}
		}
		if wrote < len(win) {
			c.mu.Lock()
			c.c.sent += uint64(len(win) - wrote)
			c.c.retries += uint64(resend)
			c.mu.Unlock()
			err := cs.send(win[wrote:], c.opt.WriteTimeout)
			wrote, resend = len(win), 0
			if err != nil {
				fail()
				continue
			}
		}
		acked, rejected, err := cs.acks(wrote, c.opt.AckTimeout)
		if n := acked + rejected; n > 0 {
			c.settle(n, func() {
				c.c.acked += uint64(acked)
				c.c.rejected += uint64(rejected)
			})
			win = append(win[:0], win[n:]...)
			wrote -= n
			fails = 0
		}
		if err != nil {
			fail()
		}
	}
}

// ensureConn returns the live connection, dialing with backoff until one is
// established. nil means the client is closing.
func (c *Client) ensureConn() *clientConn {
	c.mu.Lock()
	if cc, ok := c.conn.(*clientConn); ok {
		c.mu.Unlock()
		return cc
	}
	c.mu.Unlock()
	for attempt := 0; ; attempt++ {
		select {
		case <-c.stop:
			return nil
		default:
		}
		c.mu.Lock()
		c.c.dials++
		c.mu.Unlock()
		conn, err := c.opt.Dial(c.addr)
		if err == nil {
			cc := newClientConn(conn)
			c.mu.Lock()
			if c.closed {
				c.mu.Unlock()
				_ = conn.Close()
				return nil
			}
			c.conn = cc
			c.mu.Unlock()
			return cc
		}
		c.mu.Lock()
		c.c.dialFailures++
		c.mu.Unlock()
		if !c.sleep(c.backoff(attempt)) {
			return nil
		}
	}
}

// dropConn closes and forgets the current connection after a transport
// failure.
func (c *Client) dropConn() {
	c.mu.Lock()
	conn := c.conn
	c.conn = nil
	if conn != nil {
		c.c.reconnects++
	}
	c.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// backoff computes the delay before retry `attempt` (0-based): the base
// doubled per attempt, capped at BackoffMax, scaled by a seeded jitter draw
// in [0.5, 1].
func (c *Client) backoff(attempt int) time.Duration {
	return backoffDelay(attempt, c.opt.BackoffMin, c.opt.BackoffMax, c.rng)
}

// backoffDelay is the pure backoff schedule: lo·2^attempt capped at hi,
// jittered to [0.5, 1]× by the rng. Exponent overflow saturates at hi.
func backoffDelay(attempt int, lo, hi time.Duration, rng *stat.RNG) time.Duration {
	d := hi
	if attempt < 62 {
		if shifted := lo << uint(attempt); shifted > 0 && shifted < hi {
			d = shifted
		}
	}
	d = time.Duration(rng.Uniform(0.5, 1) * float64(d))
	if d < lo/2 {
		d = lo / 2
	}
	return d
}

// sleep waits d on the configured clock, returning false if the client
// closed first. The wait rides a one-shot ticker so a virtual clock can
// drive it deterministically.
func (c *Client) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := c.opt.Clock.NewTicker(d)
	defer t.Stop()
	select {
	case <-t.C():
		return true
	case <-c.stop:
		return false
	}
}

// clientConn bundles a connection with its buffered reader so ack lines
// survive across exchanges.
type clientConn struct {
	net.Conn
	fr *frame
}

func newClientConn(conn net.Conn) *clientConn {
	return &clientConn{Conn: conn, fr: newFrame(conn)}
}

// send buffers the reports' lines and flushes them in one write, under
// one wall-clock deadline.
func (cs *clientConn) send(rs []Report, writeTimeout time.Duration) error {
	if err := cs.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
		return err
	}
	for _, r := range rs {
		if err := cs.fr.queueReport(r); err != nil {
			return err
		}
	}
	return cs.fr.flush()
}

// acks reads at least one acknowledgement, waiting up to ackTimeout, then
// every further one already buffered, up to the inFlight reports written,
// and counts them by verdict. On a transport error the counts cover the
// acks read before it.
func (cs *clientConn) acks(inFlight int, ackTimeout time.Duration) (acked, rejected int, err error) {
	if err := cs.SetReadDeadline(time.Now().Add(ackTimeout)); err != nil {
		return 0, 0, err
	}
	for {
		ok, _, err := cs.fr.readAck()
		if err != nil {
			return acked, rejected, err
		}
		if ok {
			acked++
		} else {
			rejected++
		}
		if acked+rejected == inFlight || !cs.fr.ackBuffered() {
			return acked, rejected, nil
		}
	}
}
