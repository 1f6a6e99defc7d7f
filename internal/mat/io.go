package mat

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// WriteCSV writes m as comma-separated rows with full float64 precision.
func WriteCSV(w io.Writer, m *Dense) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			if j > 0 {
				if err := bw.WriteByte(','); err != nil {
					return fmt.Errorf("write csv: %w", err)
				}
			}
			if _, err := bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
				return fmt.Errorf("write csv: %w", err)
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return fmt.Errorf("write csv: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("write csv: %w", err)
	}
	return nil
}

// ReadCSV parses a matrix from comma-separated rows. Blank lines are
// skipped; all rows must have the same number of fields.
func ReadCSV(r io.Reader) (*Dense, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var rows [][]float64
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Split(text, ",")
		row := make([]float64, len(fields))
		for j, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("read csv line %d field %d: %w", line, j+1, err)
			}
			row[j] = v
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("read csv: %w", ErrEmptyInput)
	}
	m, err := NewFromRows(rows)
	if err != nil {
		return nil, fmt.Errorf("read csv: %w", err)
	}
	return m, nil
}

// Binary matrix framing: "MATB" magic, uint32 rows, uint32 cols, then
// rows*cols float64 values row-major, all little-endian. The format carries
// no checksum of its own — durable containers (the WAL checkpoint) wrap it
// in their own CRC.
var binaryMagic = [4]byte{'M', 'A', 'T', 'B'}

// maxBinaryDim bounds each dimension a binary header may claim, so a
// corrupted header cannot drive a multi-gigabyte allocation before the
// caller's integrity check gets a chance to run.
const maxBinaryDim = 1 << 24

// WriteBinary writes m in the binary matrix framing.
func WriteBinary(w io.Writer, m *Dense) error {
	hdr := make([]byte, 12)
	copy(hdr, binaryMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:], uint32(m.rows))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(m.cols))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("write binary: %w", err)
	}
	buf := make([]byte, 8*m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			binary.LittleEndian.PutUint64(buf[8*j:], math.Float64bits(v))
		}
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("write binary: %w", err)
		}
	}
	return nil
}

// ReadBinary parses one binary-framed matrix from r, leaving the reader
// positioned immediately after it.
func ReadBinary(r io.Reader) (*Dense, error) {
	hdr := make([]byte, 12)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("read binary header: %w", err)
	}
	if [4]byte(hdr[:4]) != binaryMagic {
		return nil, fmt.Errorf("read binary: bad magic %q", hdr[:4])
	}
	rows := int(binary.LittleEndian.Uint32(hdr[4:]))
	cols := int(binary.LittleEndian.Uint32(hdr[8:]))
	if rows > maxBinaryDim || cols > maxBinaryDim {
		return nil, fmt.Errorf("read binary: implausible shape %dx%d", rows, cols)
	}
	// Grow storage row by row rather than trusting the header with one big
	// up-front allocation: a corrupted header can claim a petabyte-scale
	// shape, and the bytes behind it are the only credible witness.
	data := make([]float64, 0, min(rows*cols, 1<<16))
	buf := make([]byte, 8*cols)
	for i := 0; i < rows; i++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("read binary row %d: %w", i, err)
		}
		data = slices.Grow(data, cols)
		row := data[len(data) : len(data)+cols]
		for j := range row {
			row[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*j:]))
		}
		data = data[:len(data)+cols]
	}
	return &Dense{rows: rows, cols: cols, data: data}, nil
}
