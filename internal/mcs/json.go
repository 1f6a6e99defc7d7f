package mcs

import (
	"encoding/json"
	"strconv"
)

// decodeJSON parses one participant JSON line into r, exactly as
// json.Unmarshal into a zeroed Report would: it succeeds on the same lines
// and yields the same report. When the line's fleet equals fleet, the
// report shares that string rather than allocating a copy, as DecodeBinary
// does.
//
// A fixed-schema scanner decodes the lines participants send: one object
// whose keys are Report's own JSON names in their exact case, with a fleet
// string of printable ASCII without escapes and number values in strict
// JSON grammar, parsed by the strconv calls encoding/json makes. Any other
// line (another key case, an escape, an unknown field, null, a nested
// value, a non-ASCII or control byte, a malformed number, trailing bytes)
// is handed whole to json.Unmarshal, so encoding/json stays the judge of
// everything unusual. The stamp fields have no JSON name, so a line that
// sends ingest_us, origin or trace_id takes the fallback, which ignores
// them: only the door stamps a participant's report.
func decodeJSON(b []byte, fleet string, r *Report) error {
	if scanReport(b, fleet, r) {
		return nil
	}
	*r = Report{}
	return json.Unmarshal(b, r)
}

// scanReport is decodeJSON's fast path. It reports false, leaving r
// partly written, for any line outside the fixed schema. Duplicate keys
// overwrite, so the last one wins, as in encoding/json.
func scanReport(b []byte, fleet string, r *Report) bool {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	i = skipSpace(b, i+1)
	for {
		// A key: no name of Report's holds a quote or a backslash, so the
		// bytes up to the next quote either are a name or send the line to
		// the fallback.
		if i == len(b) || b[i] != '"' {
			return false
		}
		end := i + 1
		for end < len(b) && b[end] != '"' {
			end++
		}
		if end == len(b) {
			return false
		}
		key := b[i+1 : end]
		i = skipSpace(b, end+1)
		if i == len(b) || b[i] != ':' {
			return false
		}
		i = skipSpace(b, i+1)
		if string(key) == "fleet" {
			if i == len(b) || b[i] != '"' {
				return false
			}
			j := i + 1
			for j < len(b) && b[j] >= 0x20 && b[j] < 0x7f && b[j] != '"' && b[j] != '\\' {
				j++
			}
			if j == len(b) || b[j] != '"' {
				return false
			}
			if s := b[i+1 : j]; string(s) == fleet {
				r.Fleet = fleet
			} else {
				r.Fleet = string(s)
			}
			i = j + 1
		} else {
			j := scanNumber(b, i)
			if j == i || !setNumber(r, key, b[i:j]) {
				return false
			}
			i = j
		}
		i = skipSpace(b, i)
		if i == len(b) {
			return false
		}
		switch b[i] {
		case '}':
			return skipSpace(b, i+1) == len(b)
		case ',':
			i = skipSpace(b, i+1)
		default:
			return false
		}
	}
}

// setNumber stores the number num under key with the strconv call, bit
// size and range encoding/json applies to the field's type. It reports
// false for an unknown key or a number the field cannot hold.
func setNumber(r *Report, key, num []byte) bool {
	var err error
	switch string(key) {
	case "participant":
		var n int64
		n, err = strconv.ParseInt(string(num), 10, strconv.IntSize)
		r.Participant = int(n)
	case "slot":
		var n int64
		n, err = strconv.ParseInt(string(num), 10, strconv.IntSize)
		r.Slot = int(n)
	case "x":
		r.X, err = strconv.ParseFloat(string(num), 64)
	case "y":
		r.Y, err = strconv.ParseFloat(string(num), 64)
	case "vx":
		r.VX, err = strconv.ParseFloat(string(num), 64)
	case "vy":
		r.VY, err = strconv.ParseFloat(string(num), 64)
	default:
		return false
	}
	return err == nil
}

// scanNumber returns the end of the JSON number starting at b[i]:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. It returns i when none
// starts there. strconv alone would also take forms JSON forbids, such as
// "+1", "1.", ".5", "0x1p3" or "Inf".
func scanNumber(b []byte, i int) int {
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && '1' <= b[j] && b[j] <= '9':
		j = skipDigits(b, j)
	default:
		return i
	}
	if j < len(b) && b[j] == '.' {
		k := skipDigits(b, j+1)
		if k == j+1 {
			return i
		}
		j = k
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		k := skipDigits(b, j)
		if k == j {
			return i
		}
		j = k
	}
	return j
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// skipSpace skips JSON whitespace: space, tab, newline and carriage return.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}
