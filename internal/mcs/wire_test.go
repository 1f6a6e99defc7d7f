package mcs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// recordSink accepts every report and records them in arrival order.
type recordSink struct {
	mu      sync.Mutex
	reports []Report
}

func (s *recordSink) Ingest(r Report) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reports = append(s.reports, r)
	return nil
}

func (s *recordSink) got() []Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Report(nil), s.reports...)
}

// finiteSink refuses non-finite reports, as the engine's check does, and
// passes the rest to the sink.
type finiteSink struct{ *sink }

func (s finiteSink) Ingest(r Report) error {
	if err := r.CheckFinite(); err != nil {
		return err
	}
	return s.sink.Ingest(r)
}

// frameOf is one report as the client's frame path writes it.
func frameOf(t testing.TB, r Report) []byte {
	t.Helper()
	var wire bytes.Buffer
	fr := newFrame(&wire)
	if err := fr.queueReport(r); err != nil {
		t.Fatal(err)
	}
	if err := fr.flush(); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes()
}

// rawFrame is a payload behind its uvarint length.
func rawFrame(payload []byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(payload))), payload...)
}

// dialWire opens a connection to addr with a generous deadline.
func dialWire(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return conn, bufio.NewReader(conn)
}

func write(t *testing.T, conn net.Conn, b []byte) {
	t.Helper()
	if _, err := conn.Write(b); err != nil {
		t.Fatal(err)
	}
}

// readAcks reads n ack lines.
func readAcks(t *testing.T, br *bufio.Reader, n int) []string {
	t.Helper()
	acks := make([]string, n)
	for i := range acks {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
		acks[i] = strings.TrimSuffix(line, "\n")
	}
	return acks
}

func checkAcks(t *testing.T, name string, got, want []string) {
	t.Helper()
	for i := range want {
		if !strings.HasPrefix(got[i], want[i]) {
			t.Errorf("%s: ack %d = %q, want prefix %q", name, i, got[i], want[i])
		}
	}
}

// expectClosed asserts the server ends the connection without another ack.
func expectClosed(t *testing.T, br *bufio.Reader) {
	t.Helper()
	line, err := br.ReadString('\n')
	if err == nil {
		t.Fatalf("got ack %q, want the connection closed", line)
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("client read deadline fired first: the server kept the connection open")
	}
}

// TestServerBothFramingsAtOnce streams JSON lines and binary frames to one
// server on two connections at once, interleaving the writes: each
// connection gets its own acks, one per report, in its own order.
func TestServerBothFramingsAtOnce(t *testing.T) {
	c := newSink(2, 8)
	addr := startServer(t, c)
	jconn, jr := dialWire(t, addr)
	bconn, bbr := dialWire(t, addr)

	line := func(r Report) []byte { return []byte(reportLine(t, r) + "\n") }
	write(t, bconn, []byte(binaryPreamble))
	write(t, jconn, line(Report{Participant: 0, Slot: 0, X: 1}))
	write(t, bconn, frameOf(t, Report{Participant: 1, Slot: 0, X: 2}))
	write(t, jconn, line(Report{Participant: 0, Slot: 0, X: 3}))       // duplicate
	write(t, bconn, frameOf(t, Report{Participant: 1, Slot: 0, X: 4})) // duplicate
	write(t, jconn, line(Report{Participant: 0, Slot: 1, X: 5}))
	write(t, bconn, frameOf(t, Report{Participant: 1, Slot: 1, X: 6}))

	want := []string{"ok", "err mcs: duplicate report", "ok"}
	checkAcks(t, "json", readAcks(t, jr, 3), want)
	checkAcks(t, "binary", readAcks(t, bbr, 3), want)
	if c.at(0, 1).X != 5 || c.at(1, 1).X != 6 || c.at(1, 0).X != 2 {
		t.Fatalf("reports landed wrong: %+v %+v %+v", c.at(0, 1), c.at(1, 1), c.at(1, 0))
	}
}

// TestServerBadFrameInPlace puts frames that do not hold exactly one
// report between good ones: each is acked "err bad frame" in its position
// and the stream goes on.
func TestServerBadFrameInPlace(t *testing.T) {
	c := newSink(2, 8)
	conn, br := dialWire(t, startServer(t, c))
	good := Report{Fleet: "cab", Participant: 0, Slot: 0, X: 1}
	var wire []byte
	wire = append(wire, binaryPreamble...)
	wire = append(wire, frameOf(t, good)...)
	wire = append(wire, rawFrame([]byte{0xFF, 0x7F, 9})...)             // unknown version
	wire = append(wire, rawFrame(append(good.AppendBinary(nil), 0))...) // a byte left over
	wire = append(wire, rawFrame(nil)...)                               // empty payload
	wire = append(wire, frameOf(t, Report{Fleet: "cab", Participant: 1, Slot: 0, X: 2})...)
	write(t, conn, wire)
	checkAcks(t, "binary", readAcks(t, br, 5), []string{"ok", "err bad frame", "err bad frame", "err bad frame", "ok"})
	if accepted, rejected := c.counts(); accepted != 2 || rejected != 0 {
		t.Fatalf("sink counts %d/%d, want the 2 good reports and no others", accepted, rejected)
	}
}

// TestServerEndsOnBadLength sends a length prefix above the line cap, and
// in a second stream an unreadable uvarint: the server acks what came
// before and ends the connection, as it does for an over-long JSON line.
func TestServerEndsOnBadLength(t *testing.T) {
	addr := startServer(t, newSink(2, 8))
	for i, tail := range [][]byte{
		binary.AppendUvarint(nil, maxLine+1),
		bytes.Repeat([]byte{0xFF}, binary.MaxVarintLen64+1),
	} {
		conn, br := dialWire(t, addr)
		wire := append([]byte(binaryPreamble), frameOf(t, Report{Participant: i, Slot: 0})...)
		write(t, conn, append(wire, tail...))
		checkAcks(t, "binary", readAcks(t, br, 1), []string{"ok"})
		expectClosed(t, br)
	}
}

// TestServerDropsTricklingFramePeer pins the idle rule for frames: a peer
// that trickles the bytes of a frame it never finishes is dropped about
// IdleTimeout after its last complete frame, and the torn frame gets no
// ack.
func TestServerDropsTricklingFramePeer(t *testing.T) {
	const idle = 200 * time.Millisecond
	conn, br := dialWire(t, startIdleServer(t, newSink(2, 10), idle))
	write(t, conn, append([]byte(binaryPreamble), frameOf(t, Report{Participant: 0, Slot: 0, X: 1})...))
	checkAcks(t, "binary", readAcks(t, br, 1), []string{"ok"})
	start := time.Now()

	partial := frameOf(t, Report{Participant: 1, Slot: 1, X: 2})
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for i := 0; i < len(partial)-1; i++ {
			select {
			case <-stop:
				return
			case <-time.After(idle / 4):
			}
			if _, err := conn.Write(partial[i : i+1]); err != nil {
				return
			}
		}
	}()
	expectClosed(t, br)
	if waited := time.Since(start); waited > 3*idle {
		t.Errorf("trickling peer dropped after %v, want about the %v idle timeout", waited, idle)
	}
}

// TestClientNegativeParticipantRejected sends a report the binary layout
// cannot carry (participant −1) between two good ones: the server refuses
// its frame, the client counts it Rejected once and never re-sends it, and
// the ingestor never sees it.
func TestClientNegativeParticipantRejected(t *testing.T) {
	rec := &recordSink{}
	cl := NewClient(startServer(t, rec), fastClientOptions())
	defer cl.Close()
	sendAll(t, cl, []Report{
		{Fleet: "cab", Participant: 0, Slot: 0},
		{Fleet: "cab", Participant: -1, Slot: 1},
		{Fleet: "cab", Participant: 1, Slot: 2},
	})
	flushWithin(t, cl, 10*time.Second)
	if st := cl.Stats(); st.Acked != 2 || st.Rejected != 1 || st.Sent != 3 || st.Retries != 0 || st.Reconnects != 0 {
		t.Fatalf("stats = %+v, want 2 acked, 1 rejected, each sent once", st)
	}
	if got := rec.got(); len(got) != 2 || got[0].Participant != 0 || got[1].Participant != 1 {
		t.Fatalf("ingestor saw %+v, want only participants 0 and 1", got)
	}
}

// TestBinaryHopRefusesNonFinite sends NaN and ±Inf through the client's
// frame path: the frames carry them to the ingestor, whose finiteness
// check refuses them as it would a JSON upload's.
func TestBinaryHopRefusesNonFinite(t *testing.T) {
	c := newSink(2, 8)
	conn, br := dialWire(t, startServer(t, finiteSink{c}))
	wire := []byte(binaryPreamble)
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1} {
		wire = append(wire, frameOf(t, Report{Participant: 0, Slot: i, X: 1, VY: v})...)
	}
	write(t, conn, wire)
	nf := "err " + ErrNonFinite.Error()
	checkAcks(t, "binary", readAcks(t, br, 4), []string{nf, nf, nf, "ok"})
	if accepted, _ := c.counts(); accepted != 1 {
		t.Fatalf("accepted %d, want only the finite report", accepted)
	}

	// A Client counts the refusal as terminal: Rejected, never retried.
	cl := NewClient(startServer(t, finiteSink{newSink(2, 8)}), fastClientOptions())
	defer cl.Close()
	sendAll(t, cl, []Report{{Participant: 0, Slot: 0, X: math.NaN()}})
	flushWithin(t, cl, 10*time.Second)
	if st := cl.Stats(); st.Rejected != 1 || st.Retries != 0 {
		t.Fatalf("stats = %+v, want the NaN report rejected once", st)
	}
}

// memConn is a net.Conn over an in-memory input that records what the
// server writes; deadlines are ignored.
type memConn struct {
	io.Reader
	out bytes.Buffer
}

func (c *memConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *memConn) Close() error                     { return nil }
func (c *memConn) LocalAddr() net.Addr              { return nil }
func (c *memConn) RemoteAddr() net.Addr             { return nil }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// serveBytes runs one server connection over the whole input and returns
// its ack lines and the reports it ingested.
func serveBytes(in []byte) (acks []string, got []Report) {
	rec := &recordSink{}
	conn := &memConn{Reader: bytes.NewReader(in)}
	NewServer(rec).ServeConn(conn)
	if out := strings.TrimSuffix(conn.out.String(), "\n"); out != "" {
		acks = strings.Split(out, "\n")
	}
	return acks, rec.got()
}

// sameBits reports whether two reports agree field for field, comparing
// values by their bits.
func sameBits(a, b Report) bool {
	return a.Fleet == b.Fleet && bytes.Equal(a.AppendBinary(nil), b.AppendBinary(nil))
}

// FuzzServeBinary feeds arbitrary bytes after the preamble. The server
// must not panic, must ack exactly one line per complete frame (a readable
// length within the cap and that many payload bytes), and must ingest, in
// order, exactly the frames whose payload DecodeBinary accepts whole.
func FuzzServeBinary(f *testing.F) {
	good := Report{Fleet: "cab", Participant: 3, Slot: 4, X: 1, IngestUnixMicro: 5, Origin: OriginRouter, TraceID: 6}
	f.Add(frameOf(f, good))
	f.Add(append(frameOf(f, good), rawFrame([]byte{1, 2, 3})...))
	f.Add(append(rawFrame(append(good.AppendBinary(nil), 0)), frameOf(f, Report{Fleet: "x"})[:5]...))
	f.Add(binary.AppendUvarint(nil, maxLine+1))
	//BIG
	f.Fuzz(func(t *testing.T, data []byte) {
		acks, got := serveBytes(append([]byte(binaryPreamble), data...))
		var want []Report
		var wantAcks []string
		for b := data; ; {
			n, k := binary.Uvarint(b)
			if k <= 0 || n > maxLine || uint64(len(b)-k) < n {
				break
			}
			p := b[k : k+int(n)]
			b = b[k+int(n):]
			var r Report
			if used, err := DecodeBinary(p, "", &r); err == nil && used == len(p) {
				want = append(want, r)
				wantAcks = append(wantAcks, "ok")
			} else {
				wantAcks = append(wantAcks, "err bad frame")
			}
		}
		if strings.Join(acks, "|") != strings.Join(wantAcks, "|") {
			t.Fatalf("acks %q, want %q", acks, wantAcks)
		}
		if len(got) != len(want) {
			t.Fatalf("ingested %d reports, want %d", len(got), len(want))
		}
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("report %d = %+v, want %+v", i, got[i], want[i])
			}
		}
	})
}

// FuzzFrameRoundTrip writes a report through the client's frame path and
// serves it: the server ingests one report bit-identical to it, NaN
// payload bits included. Participant, slot and fleet are folded into the
// ranges the layout carries.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add("cab", uint32(3), uint32(4), math.Float64bits(1.5), math.Float64bits(math.NaN()), uint64(0x7FF0000000000001), uint64(1)<<63, int64(0), uint8(0), uint64(0))
	f.Add("", uint32(math.MaxUint32), uint32(0), uint64(0), uint64(0), uint64(0), uint64(0), int64(-1), uint8(2), uint64(9))
	f.Fuzz(func(t *testing.T, fleet string, participant, slot uint32, x, y, vx, vy uint64, us int64, origin uint8, trace uint64) {
		if len(fleet) > maxFleetLen {
			fleet = fleet[:maxFleetLen]
		}
		r := Report{
			Fleet: fleet, Participant: int(participant & math.MaxInt32), Slot: int(slot & math.MaxInt32),
			X: math.Float64frombits(x), Y: math.Float64frombits(y),
			VX: math.Float64frombits(vx), VY: math.Float64frombits(vy),
			IngestUnixMicro: us, Origin: Origin(origin), TraceID: trace,
		}
		acks, got := serveBytes(append([]byte(binaryPreamble), frameOf(t, r)...))
		if len(acks) != 1 || acks[0] != "ok" || len(got) != 1 {
			t.Fatalf("acks %q, %d reports ingested; want one ok and one report", acks, len(got))
		}
		if !sameBits(got[0], r) {
			t.Fatalf("round trip %+v, want %+v", got[0], r)
		}
	})
}

// nopBatch is a BatchIngestor that accepts everything and does nothing.
type nopBatch struct{}

func (nopBatch) Ingest(Report) error           { return nil }
func (nopBatch) IngestBatch([]Report, []error) {}

// BenchmarkServerIngest measures the door per report in each framing: a
// Server in front of a no-op BatchIngestor, fed a stamped report stream
// over net.Pipe and answering every report with an ack. b.N counts
// reports, so ns/op and allocs/op are per report.
func BenchmarkServerIngest(b *testing.B) {
	r := Report{
		Fleet: "fleet-07", Participant: 42, Slot: 1234, X: 1200.5, Y: 884.25, VX: 4.1, VY: -2,
		IngestUnixMicro: 1_700_000_000_000_000, Origin: OriginRouter, TraceID: 0x1234567890abcdef,
	}
	const chunk = 256
	for _, framing := range []string{"json", "binary"} {
		b.Run(framing, func(b *testing.B) {
			// One chunk of reports in the framing, and where each ends.
			var wire bytes.Buffer
			fr := newFrame(&wire)
			ends := make([]int, chunk)
			for i := range ends {
				var err error
				if framing == "json" {
					err = fr.writeReport(r)
				} else if err = fr.queueReport(r); err == nil {
					err = fr.flush()
				}
				if err != nil {
					b.Fatal(err)
				}
				ends[i] = wire.Len()
			}
			srv := NewServer(nopBatch{})
			cli, conn := net.Pipe()
			go srv.ServeConn(conn)
			defer srv.Close()
			defer cli.Close()
			acked := make(chan error, 1)
			go func() {
				br := bufio.NewReader(cli)
				for i := 0; i < b.N; i++ {
					if line, err := br.ReadSlice('\n'); err != nil || string(line) != "ok\n" {
						acked <- errors.Join(err, errors.New("ack "+string(line)))
						return
					}
				}
				acked <- nil
			}()
			b.ReportAllocs()
			b.ResetTimer()
			if framing == "binary" {
				if _, err := cli.Write([]byte(binaryPreamble)); err != nil {
					b.Fatal(err)
				}
			}
			for sent := 0; sent < b.N; sent += chunk {
				k := min(chunk, b.N-sent)
				if _, err := cli.Write(wire.Bytes()[:ends[k-1]]); err != nil {
					b.Fatal(err)
				}
			}
			if err := <-acked; err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestSendReportsStaysJSON pins the participant path: one-shot SendReports
// writes JSON lines, never the binary preamble.
func TestSendReportsStaysJSON(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	first := make(chan string, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		line, _ := br.ReadString('\n')
		first <- line
		_, _ = conn.Write([]byte("ok\n"))
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := SendReports(ctx, ln.Addr().String(), []Report{{Fleet: "cab", Slot: 1}}); err != nil {
		t.Fatal(err)
	}
	if line := <-first; !strings.HasPrefix(line, `{"fleet":"cab"`) {
		t.Fatalf("first line %q, want a JSON report", line)
	}
}
