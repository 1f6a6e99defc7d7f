package mcs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// immediatePast returns a deadline that cancels blocking I/O immediately.
func immediatePast() time.Time { return time.Unix(1, 0) }

// DefaultIdleTimeout is the per-connection idle limit applied by NewServer:
// a client that delivers no complete report line for this long is
// disconnected, so dead clients cannot hold goroutines and connection
// slots forever.
const DefaultIdleTimeout = 2 * time.Minute

// Server exposes an Ingestor (a batch Collector or the streaming pipeline)
// over line-delimited JSON on TCP. Each connection may stream any number of
// reports; the server replies to every line with "ok\n" or "err <reason>\n",
// giving participants upload acknowledgement as in a real MCS backend.
//
// Start the server with Serve (usually in a goroutine) and stop it with
// Close, which stops accepting, closes live connections, and waits for the
// connection handlers to drain.
type Server struct {
	ingestor Ingestor

	// IdleTimeout bounds how long a connection may sit without delivering a
	// complete report line before it is dropped. Zero disables the limit.
	// Set it before Serve; NewServer initializes it to DefaultIdleTimeout.
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

// handle processes one connection's report stream. Acks are buffered and
// flushed only when the handler is about to read the connection again, so
// a client with many reports in flight gets their acks in one write while
// a client waiting on its last ack never waits on a withheld one.
func (s *Server) handle(conn net.Conn) {
	w := bufio.NewWriter(conn)
	sc := bufio.NewScanner(flushReader{conn, w})
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for {
		// Refresh the read deadline before every line: a client must keep
		// delivering complete reports within IdleTimeout or be dropped, so a
		// stalled or dead peer cannot pin its handler goroutine forever.
		if s.IdleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.IdleTimeout))
		}
		if !sc.Scan() {
			break
		}
		var r Report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			writeLine(w, "err bad json")
			continue
		}
		if err := s.ingestor.Ingest(r); err != nil {
			writeLine(w, "err "+err.Error())
			continue
		}
		writeLine(w, "ok")
	}
	// Scanner errors (timeouts and closed connections included) end the
	// stream; the participant will reconnect and retry in a real deployment.
	// A peer that only half-closed still gets the acks it is owed.
	_ = w.Flush()
}

// flushReader reads the connection through the ack writer: every read first
// flushes the acks buffered so far. The scanner reads only once its buffer
// holds no whole line, so acks go out exactly when the handler would
// otherwise wait for input.
type flushReader struct {
	conn net.Conn
	w    *bufio.Writer
}

func (f flushReader) Read(p []byte) (int, error) {
	if err := f.w.Flush(); err != nil {
		return 0, err
	}
	return f.conn.Read(p)
}

func writeLine(w *bufio.Writer, line string) {
	_, _ = w.WriteString(line)
	_ = w.WriteByte('\n')
}
