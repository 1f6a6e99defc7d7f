package mcs

import (
	"encoding/json"
	"testing"
)

// jsonLine is the shape of the lines participants send: json.Marshal of an
// unstamped report, as the load generator and SendReports write them.
const jsonLine = `{"fleet":"fleet-07","participant":42,"slot":1234,"x":1200.5123456789,"y":-884.25,"vx":4.1,"vy":-2}`

// stampedLine is a participant line that also sends the stamp fields'
// former JSON keys: the door ignores them.
const stampedLine = `{"fleet":"cab","participant":3,"slot":7,"x":1.5,"y":-2,"vx":0.25,"vy":0,"ingest_us":1700000000000000,"origin":2,"trace_id":18446744073709551615}`

// jsonCases are lines at the edge of the fixed schema. fast says whether
// the scanner decodes the line itself; every other line must reach
// json.Unmarshal whole. Either way the door must agree with encoding/json.
var jsonCases = []struct {
	name string
	line string
	fast bool
}{
	{"generator shape", jsonLine, true},
	{"stamped", stampedLine, false},
	{"key in other case", `{"Fleet":"cab","participant":1}`, false},
	{"short key in other case", `{"fleet":"cab","X":1}`, false},
	{"escaped key", `{"fle\u0074":"cab"}`, false},
	{"unknown field", `{"fleet":"cab","speed":3}`, false},
	{"nested unknown field", `{"fleet":"cab","meta":{"a":[1,{"b":null}]}}`, false},
	{"duplicate keys", `{"fleet":"a","x":1,"fleet":"b","x":2}`, true},
	{"null", `null`, false},
	{"null field", `{"fleet":null,"x":null}`, false},
	{"empty object", `{}`, false},
	{"negative zero", `{"x":-0,"participant":-0}`, true},
	{"leading zero", `{"x":01}`, false},
	{"bare fraction point", `{"x":1.}`, false},
	{"no integer part", `{"x":.5}`, false},
	{"plus sign", `{"x":+1}`, false},
	{"empty exponent", `{"x":1e}`, false},
	{"lone minus", `{"x":-}`, false},
	{"infinity", `{"x":Infinity}`, false},
	{"float overflow", `{"x":1e400}`, false},
	{"float underflow", `{"y":1e-400}`, true},
	{"exponent forms", `{"x":-1.5E+3,"y":2e-2,"vx":0.0}`, true},
	{"fraction for int", `{"slot":1.0}`, false},
	{"exponent for int", `{"slot":1e2}`, false},
	{"2^63 for int", `{"participant":9223372036854775808}`, false},
	{"min int", `{"participant":-9223372036854775808}`, true},
	{"origin 255", `{"origin":255}`, false},
	{"origin 256", `{"origin":256}`, false},
	{"origin -1", `{"origin":-1}`, false},
	{"trace_id -1", `{"trace_id":-1}`, false},
	{"string for number", `{"x":"1"}`, false},
	{"number for fleet", `{"fleet":7}`, false},
	{"bool", `{"fleet":"cab","x":true}`, false},
	{"empty fleet", `{"fleet":"","participant":1}`, true},
	{"invalid UTF-8 in fleet", "{\"fleet\":\"c\xffb\"}", false},
	{"non-ASCII fleet", `{"fleet":"café"}`, false},
	{"escape in fleet", `{"fleet":"a\nb"}`, false},
	{"unicode escape in fleet", `{"fleet":"caf\u00e9"}`, false},
	{"quote escape in fleet", `{"fleet":"a\"b"}`, false},
	{"DEL in fleet", "{\"fleet\":\"a\x7fb\"}", false},
	{"control byte in fleet", "{\"fleet\":\"a\x01b\"}", false},
	{"control byte between tokens", "{\"fleet\":\"cab\",\x00\"x\":1}", false},
	{"trailing garbage", `{"x":1}x`, false},
	{"second object", `{"x":1}{"x":2}`, false},
	{"trailing comma", `{"x":1,}`, false},
	{"missing colon", `{"x" 1}`, false},
	{"unterminated", `{"fleet":"cab"`, false},
	{"empty line", ``, false},
	{"blank line", " \t", false},
	{"array", `[1]`, false},
	{"whitespace and CR", " \t{ \"fleet\" : \"cab\" ,\r\"x\" :\n1 }\r ", true},
	{"BOM", "\xef\xbb\xbf{\"x\":1}", false},
}

// checkDoorDecode decodes line through the door's decode on a connection
// whose previous fleet is prev, and through json.Unmarshal into a zeroed
// Report: both must reject, or both accept with bit-identical reports.
func checkDoorDecode(t *testing.T, line []byte, prev string) {
	t.Helper()
	c := &connState{fleet: prev}
	var got, want Report
	ok := c.decode(line, &got)
	err := json.Unmarshal(line, &want)
	if ok != (err == nil) {
		t.Fatalf("prev %q, line %q: door accepted=%v, encoding/json error %v", prev, line, ok, err)
	}
	if !ok {
		return
	}
	if !sameBits(got, want) {
		t.Fatalf("prev %q, line %q: door decoded %+v, encoding/json %+v", prev, line, got, want)
	}
	if c.fleet != got.Fleet {
		t.Fatalf("prev %q, line %q: connection fleet %q after decoding %q", prev, line, c.fleet, got.Fleet)
	}
}

func TestDecodeJSONMatchesEncodingJSON(t *testing.T) {
	for _, tc := range jsonCases {
		t.Run(tc.name, func(t *testing.T) {
			var r Report
			if fast := scanReport([]byte(tc.line), "", &r); fast != tc.fast {
				t.Errorf("fast path took the line: %v, want %v", fast, tc.fast)
			}
			for _, prev := range []string{"", "cab"} {
				checkDoorDecode(t, []byte(tc.line), prev)
			}
		})
	}
}

// TestDecodeJSONIgnoresStamp pins that a participant cannot stamp its own
// report: the stamp keys on a line decode to nothing, and the payload
// decodes as it would without them.
func TestDecodeJSONIgnoresStamp(t *testing.T) {
	var got Report
	if !(&connState{}).decode([]byte(stampedLine), &got) {
		t.Fatal("line refused")
	}
	want := Report{Fleet: "cab", Participant: 3, Slot: 7, X: 1.5, Y: -2, VX: 0.25}
	if got.Stamped() || got.Origin != OriginUnknown || got.TraceID != 0 || !sameBits(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
}

// FuzzDecodeReportJSON holds the door's JSON decode to encoding/json on
// arbitrary bytes, with an empty and a non-empty previous fleet.
func FuzzDecodeReportJSON(f *testing.F) {
	for _, tc := range jsonCases {
		f.Add([]byte(tc.line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkDoorDecode(t, line, "")
		checkDoorDecode(t, line, "fleet-07")
	})
}

// TestDecodeJSONAllocs pins the door's cost for a well-formed line: once a
// connection has seen the fleet, decoding the next line allocates nothing.
func TestDecodeJSONAllocs(t *testing.T) {
	line := []byte(jsonLine)
	c := &connState{}
	var r Report
	if !c.decode(line, &r) {
		t.Fatal("first line refused")
	}
	got := testing.AllocsPerRun(100, func() {
		if !c.decode(line, &r) {
			t.Fatal("line refused")
		}
	})
	if got != 0 {
		t.Errorf("%v allocations per line, want 0", got)
	}
}
