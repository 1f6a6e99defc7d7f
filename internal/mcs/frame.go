package mcs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
)

// frame is the client side of the report-stream wire protocol: reports
// out, one "ok" / "err <reason>" line back per report, in report order.
// Reports go out as binary frames (queueReport, the Client's path: a
// uvarint payload length, then the AppendBinary payload, after the
// connection's binaryPreamble) or as JSON lines (writeReport, the
// participant's path). It is the single home of that framing — Client,
// SendReports, and the examples all speak through it instead of
// hand-rolling encoders and scanners per call site.
type frame struct {
	w   *bufio.Writer
	r   *bufio.Reader
	buf []byte // queueReport's payload scratch
}

// newFrame wraps a connection (or any duplex stream) in the protocol.
func newFrame(conn io.ReadWriter) *frame {
	return &frame{w: bufio.NewWriter(conn), r: bufio.NewReader(conn)}
}

// queueReport buffers one report as a binary frame without flushing it, so
// a batch of reports reaches the wire in one flush.
func (f *frame) queueReport(r Report) error {
	f.buf = r.AppendBinary(f.buf[:0])
	_, _ = f.w.Write(binary.AppendUvarint(f.w.AvailableBuffer(), uint64(len(f.buf))))
	if _, err := f.w.Write(f.buf); err != nil { // bufio errors are sticky
		return fmt.Errorf("mcs: send: %w", err)
	}
	return nil
}

// flush pushes every buffered report to the wire.
func (f *frame) flush() error {
	if err := f.w.Flush(); err != nil {
		return fmt.Errorf("mcs: send: %w", err)
	}
	return nil
}

// writeReport sends one report as a JSON line and flushes it to the wire.
func (f *frame) writeReport(r Report) error {
	if err := json.NewEncoder(f.w).Encode(r); err != nil {
		return fmt.Errorf("mcs: send: %w", err)
	}
	return f.flush()
}

// readAck reads one acknowledgement line. ok reports acceptance; reason
// carries the server's rejection text when ok is false. err is a transport
// failure (EOF, timeout), after which the stream is unusable.
func (f *frame) readAck() (ok bool, reason string, err error) {
	line, err := f.r.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		// A rejection reason longer than the read buffer: gather the rest.
		head := string(line)
		var rest string
		rest, err = f.r.ReadString('\n')
		line = []byte(head + rest)
	}
	switch {
	case err == io.EOF:
		return false, "", io.ErrUnexpectedEOF
	case err != nil:
		return false, "", fmt.Errorf("mcs: read ack: %w", err)
	}
	line = bytes.TrimSuffix(line[:len(line)-1], []byte{'\r'})
	if string(line) == "ok" {
		return true, "", nil
	}
	return false, strings.TrimPrefix(string(line), "err "), nil
}

// ackBuffered reports whether a whole acknowledgement line is already
// buffered, so that readAck returns without touching the connection.
func (f *frame) ackBuffered() bool {
	b, _ := f.r.Peek(f.r.Buffered())
	return bytes.IndexByte(b, '\n') >= 0
}

// SendReports connects to a collector server and uploads the reports in
// order, one JSON line each, waiting for each acknowledgement. It returns
// the number of reports acknowledged "ok" and the first transport error
// encountered. Server-side rejections ("err ..." replies) are counted but
// do not abort the stream: a live fleet keeps reporting even when some
// uploads are rejected.
//
// SendReports is the one-shot path: a single connection, no retries. Fleets
// that must survive backend restarts use Client, which reconnects and
// retries, and sends binary frames instead.
func SendReports(ctx context.Context, addr string, reports []Report) (acked int, err error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return 0, fmt.Errorf("mcs: dial: %w", err)
	}
	defer func() {
		if cerr := conn.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("mcs: close: %w", cerr)
		}
	}()
	// Cancel blocking I/O when the context ends.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			_ = conn.SetDeadline(immediatePast())
		case <-stop:
		}
	}()

	fr := newFrame(conn)
	for _, r := range reports {
		if err := ctx.Err(); err != nil {
			return acked, err
		}
		if err := fr.writeReport(r); err != nil {
			return acked, err
		}
		ok, _, err := fr.readAck()
		if err != nil {
			return acked, err
		}
		if ok {
			acked++
		}
	}
	return acked, nil
}
