package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"itscs/internal/mcs"
)

// batch is one write of pre-encoded report lines, due at an offset from
// the start of its round.
type batch struct {
	round int
	due   time.Duration
	data  []byte
	keys  []int32 // tracer report keys of the lines, in order
}

// genConn is one generator connection to the router's door. A fleet's
// reports all travel on one connection, which keeps them in slot order.
type genConn struct {
	conn    net.Conn
	rd      *bufio.Reader
	batches []batch
}

// generator is the load generator: a few connections, each replaying its
// pre-encoded batches on schedule regardless of how fast acks come back
// (open loop), and a reader per connection counting the acks.
type generator struct {
	conns []*genConn
}

// encoder appends reports to a connection's batches.
type encoder struct {
	c   *genConn
	cur *batch
	max int
}

// maxGenConns caps the generator's connections; it never opens more than
// one per CPU either.
const maxGenConns = 2

func newGenerator() *generator {
	g := &generator{}
	for i := 0; i < min(maxGenConns, runtime.NumCPU()); i++ {
		g.conns = append(g.conns, &genConn{})
	}
	return g
}

// encoders returns one appender per connection. Each starts a new batch
// whenever the round or due time changes, and every maxLines lines unless
// maxLines is 0.
func (g *generator) encoders(maxLines int) []*encoder {
	encs := make([]*encoder, len(g.conns))
	for i, c := range g.conns {
		encs[i] = &encoder{c: c, max: maxLines}
	}
	return encs
}

func (e *encoder) add(r mcs.Report, key int32, round int, due time.Duration) error {
	if e.cur == nil || e.cur.round != round || e.cur.due != due || (e.max > 0 && len(e.cur.keys) >= e.max) {
		e.c.batches = append(e.c.batches, batch{round: round, due: due})
		e.cur = &e.c.batches[len(e.c.batches)-1]
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	e.cur.data = append(append(e.cur.data, line...), '\n')
	e.cur.keys = append(e.cur.keys, key)
	return nil
}

func (g *generator) dial(addr string) error {
	for _, c := range g.conns {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return fmt.Errorf("generator dial: %w", err)
		}
		c.conn, c.rd = conn, bufio.NewReader(conn)
	}
	return nil
}

func (g *generator) close() {
	for _, c := range g.conns {
		if c.conn != nil {
			_ = c.conn.Close()
		}
	}
}

// playStats counts one round's traffic.
type playStats struct {
	sent, ok, refused int
	firstRefusal      string
	firstWrite        time.Time     // when the round's first batch was written
	lateMax           time.Duration // worst lateness of a write behind its due time
}

// play sends every batch of the round, each at t0 plus its due offset, and
// returns once every line has been acknowledged.
func (g *generator) play(round int, t0 time.Time, tr *tracer) (playStats, error) {
	var (
		mu   sync.Mutex
		st   playStats
		errs = make(chan error, 2*len(g.conns))
		wg   sync.WaitGroup
	)
	for _, c := range g.conns {
		var mine []*batch
		for i := range c.batches {
			if c.batches[i].round == round {
				mine = append(mine, &c.batches[i])
			}
		}
		wg.Add(2)
		go func(c *genConn) {
			defer wg.Done()
			// A failed write closes the connection, which ends the reader too.
			fail := func(err error) {
				errs <- err
				_ = c.conn.Close()
			}
			var (
				late  time.Duration
				first time.Time
			)
			for _, b := range mine {
				due := t0.Add(b.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				now := time.Now()
				if first.IsZero() {
					first = now
				}
				if l := now.Sub(due); l > late {
					late = l
				}
				tr.stampAll(stGenSend, b.keys, now)
				if err := c.conn.SetWriteDeadline(now.Add(time.Minute)); err != nil {
					fail(err)
					return
				}
				if _, err := c.conn.Write(b.data); err != nil {
					fail(fmt.Errorf("generator write: %w", err))
					return
				}
			}
			mu.Lock()
			if late > st.lateMax {
				st.lateMax = late
			}
			if !first.IsZero() && (st.firstWrite.IsZero() || first.Before(st.firstWrite)) {
				st.firstWrite = first
			}
			mu.Unlock()
		}(c)
		go func(c *genConn) {
			defer wg.Done()
			var sent, ok, refused int
			var first string
			if err := c.conn.SetReadDeadline(time.Now().Add(time.Until(t0) + 2*time.Minute + lastDue(mine))); err != nil {
				errs <- err
				return
			}
			for _, b := range mine {
				for _, key := range b.keys {
					line, err := c.rd.ReadSlice('\n')
					if err != nil {
						errs <- fmt.Errorf("generator read ack: %w", err)
						return
					}
					tr.stamp(stDoorAck, key, time.Now())
					sent++
					if bytes.Equal(line, []byte("ok\n")) {
						ok++
					} else {
						refused++
						if first == "" {
							first = string(bytes.TrimSpace(line))
						}
					}
				}
			}
			mu.Lock()
			st.sent += sent
			st.ok += ok
			st.refused += refused
			if st.firstRefusal == "" {
				st.firstRefusal = first
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return st, err
	}
	tr.noteLate(st.lateMax)
	return st, nil
}

func lastDue(bs []*batch) time.Duration {
	if len(bs) == 0 {
		return 0
	}
	return bs[len(bs)-1].due
}
