package mcs

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// immediatePast returns a deadline that cancels blocking I/O immediately.
func immediatePast() time.Time { return time.Unix(1, 0) }

// DefaultIdleTimeout is the per-connection idle limit applied by NewServer:
// a client that delivers no complete report for this long is
// disconnected, so dead clients cannot hold goroutines and connection
// slots forever.
const DefaultIdleTimeout = 2 * time.Minute

// Server exposes an Ingestor (the streaming pipeline) over TCP. Each
// connection may stream any number of reports, in one of two framings:
// JSON lines, which participants send, or the binary frames a Client sends
// after its preamble. The server replies to every line or frame with
// "ok\n" or "err <reason>\n", in order, giving participants upload
// acknowledgement as in a real MCS backend.
//
// Start the server with Serve (usually in a goroutine) and stop it with
// Close, which stops accepting, closes live connections, and waits for the
// connection handlers to drain.
type Server struct {
	ingestor Ingestor

	// IdleTimeout bounds how long a connection may sit without delivering a
	// complete report line or frame before it is dropped. Zero disables the
	// limit. Set it before Serve; NewServer initializes it to
	// DefaultIdleTimeout.
	IdleTimeout time.Duration

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer wraps an ingestor.
func NewServer(c Ingestor) *Server {
	return &Server{
		ingestor:    c,
		IdleTimeout: DefaultIdleTimeout,
		conns:       make(map[net.Conn]struct{}),
	}
}

// Listen binds the server to addr (e.g. "127.0.0.1:0") and returns the
// bound address, useful with port 0.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mcs: listen: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		_ = ln.Close()
		return nil, errors.New("mcs: server closed")
	}
	s.listener = ln
	return ln.Addr(), nil
}

// Serve accepts connections until Close is called. It returns nil on
// graceful shutdown.
func (s *Server) Serve() error {
	s.mu.Lock()
	ln := s.listener
	s.mu.Unlock()
	if ln == nil {
		return errors.New("mcs: Serve before Listen")
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isClosed() {
				return nil
			}
			return fmt.Errorf("mcs: accept: %w", err)
		}
		if !s.track(conn) {
			_ = conn.Close()
			return nil
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.handle(conn)
		}()
	}
}

// Close stops the listener, closes live connections, and waits for
// handlers to finish. It is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	ln := s.listener
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
	_ = conn.Close()
}

// ServeConn runs the report-stream protocol over a single caller-supplied
// connection, blocking until the peer disconnects or stalls past
// IdleTimeout. It is the seam the fault-injection harness uses to drive a
// handler over an in-memory or flaky transport without a listener; Serve
// uses the same code path for accepted TCP connections.
func (s *Server) ServeConn(conn net.Conn) {
	if !s.track(conn) {
		_ = conn.Close()
		return
	}
	defer s.untrack(conn)
	s.handle(conn)
}

// maxBatch caps the reports one ingest call takes, so a peer that streams
// faster than the server reads cannot grow a batch without bound.
const maxBatch = 1024

// maxLine caps one JSON report line and one binary frame's payload. A
// longer line or a larger length prefix ends the connection.
const maxLine = 1 << 20

// binaryPreamble opens a connection that carries binary frames instead of
// JSON lines. No JSON line begins with a NUL byte.
const binaryPreamble = "\x00itscs"

// handle processes one connection's report stream, in either framing: a
// connection that opens with binaryPreamble carries length-prefixed binary
// frames, any other carries JSON lines. Lines or frames are decoded into a
// pending batch, which is ingested (and its acks, in order, buffered) when
// the handler is about to read the connection again, at end of stream, or
// at maxBatch reports. Acks are flushed at the same read, so a client with
// many reports in flight gets their acks in one write while a client
// waiting on its last ack never waits on a withheld one.
func (s *Server) handle(conn net.Conn) {
	c := &connState{conn: conn, idle: s.IdleTimeout, w: bufio.NewWriter(conn), fresh: true}
	if b, ok := s.ingestor.(BatchIngestor); ok {
		c.batch = b
	} else {
		c.batch = perLine{s.ingestor}
	}
	head := c.sniff()
	c.binary = string(head) == binaryPreamble
	if c.binary {
		c.readFrames()
	} else {
		// JSON lines, the first beginning with head. The scanner's buffer
		// is the connection's only one.
		sc := bufio.NewScanner(io.MultiReader(bytes.NewReader(head), c))
		sc.Buffer(make([]byte, 0, 64<<10), maxLine)
		for sc.Scan() {
			c.add(sc.Bytes())
		}
	}
	// Read errors (timeouts and closed connections included) end the
	// stream; the participant will reconnect and retry in a real deployment.
	// A peer that only half-closed still gets the acks it is owed.
	c.ingest()
	_ = c.w.Flush()
}

// sniff reads the first bytes of the stream: the whole preamble when they
// begin like it, else whatever the first read brings.
func (c *connState) sniff() []byte {
	head := make([]byte, len(binaryPreamble))
	n, _ := c.Read(head)
	if n > 0 && head[0] == binaryPreamble[0] {
		m, _ := io.ReadFull(c, head[n:])
		n += m
	}
	return head[:n]
}

// readFrames reads binary frames, each a uvarint payload length and then
// the payload, into the pending batch. An unreadable or over-long length
// ends the stream; a partial frame at its end gets no ack. A payload longer
// than the read buffer cannot hold a report, so it is skipped unread and
// acked as bad.
func (c *connState) readFrames() {
	br := bufio.NewReaderSize(c, 64<<10)
	for {
		n, err := binary.ReadUvarint(br)
		if err != nil || n > maxLine {
			return
		}
		p, err := br.Peek(int(n))
		if errors.Is(err, bufio.ErrBufferFull) {
			p = nil
		} else if err != nil {
			return
		}
		if _, err := br.Discard(int(n)); err != nil {
			return
		}
		c.add(p)
	}
}

// perLine adapts an Ingestor without IngestBatch: one Ingest per report.
type perLine struct{ Ingestor }

func (p perLine) IngestBatch(rs []Report, errs []error) {
	for i, r := range rs {
		errs[i] = p.Ingest(r)
	}
}

// connState is one connection's pending batch and ack writer. The line or
// frame reader reads the connection through it: every read first ingests
// the pending batch and flushes the acks buffered so far. The reader reads
// only once its buffer holds no whole line or frame, so a batch is one
// read's worth of reports and acks go out exactly when the handler would
// otherwise wait for input.
type connState struct {
	conn  net.Conn
	idle  time.Duration
	w     *bufio.Writer
	batch BatchIngestor
	// binary marks a connection of binary frames; fleet is the last
	// decoded line's or frame's fleet, which the next one shares when it
	// matches.
	binary bool
	fleet  string

	// lines holds, per pending line or frame, the index of its report in
	// reports, or -1 for one that did not decode; errs receives the
	// verdicts.
	lines   []int
	reports []Report
	errs    []error
	// fresh is set when a complete line or frame arrives (and at the
	// start); the next read refreshes the idle deadline and clears it. A
	// client must deliver complete reports within the idle limit or be
	// dropped, so a stalled peer, or one trickling bytes that never end a
	// report, cannot pin its handler goroutine forever.
	fresh bool
}

// add decodes one line or frame into the pending batch, in place, and
// ingests the batch once it holds maxBatch.
func (c *connState) add(b []byte) {
	c.fresh = true
	i := len(c.reports)
	c.reports = append(c.reports, Report{})
	if !c.decode(b, &c.reports[i]) {
		c.reports = c.reports[:i]
		i = -1
	}
	c.lines = append(c.lines, i)
	if len(c.lines) == maxBatch {
		c.ingest()
	}
}

// decode parses a JSON line, or a binary frame that must hold exactly one
// report.
func (c *connState) decode(b []byte, r *Report) bool {
	if !c.binary {
		if decodeJSON(b, c.fleet, r) != nil {
			return false
		}
		c.fleet = r.Fleet
		return true
	}
	n, err := DecodeBinary(b, c.fleet, r)
	if err != nil || n != len(b) {
		return false
	}
	c.fleet = r.Fleet
	return true
}

// ingest hands the pending reports to the ingestor in one call and
// buffers one ack per pending line or frame, in order.
func (c *connState) ingest() {
	if n := len(c.reports); n > 0 {
		if cap(c.errs) < n {
			c.errs = make([]error, n)
		}
		c.errs = c.errs[:n]
		c.batch.IngestBatch(c.reports, c.errs)
	}
	for _, i := range c.lines {
		switch {
		case i < 0 && c.binary:
			writeLine(c.w, "err bad frame")
		case i < 0:
			writeLine(c.w, "err bad json")
		case c.errs[i] != nil:
			writeLine(c.w, "err "+c.errs[i].Error())
		default:
			writeLine(c.w, "ok")
		}
	}
	c.lines, c.reports = c.lines[:0], c.reports[:0]
}

func (c *connState) Read(p []byte) (int, error) {
	c.ingest()
	if err := c.w.Flush(); err != nil {
		return 0, err
	}
	if c.fresh && c.idle > 0 {
		_ = c.conn.SetReadDeadline(time.Now().Add(c.idle))
	}
	c.fresh = false
	return c.conn.Read(p)
}

func writeLine(w *bufio.Writer, line string) {
	_, _ = w.WriteString(line)
	_ = w.WriteByte('\n')
}
