package pipeline

import (
	"testing"

	"itscs/internal/mcs"
)

// TestReplayAllocs pins what one replayed record costs the heap when it
// closes no window: an unstamped record allocates nothing, and a stamped
// one only what opening its trace takes (the wal_commit stage, the trace
// and its ID). Recovery replays every record of the log tail through this
// call, so one more allocation here is one more per replayed record.
func TestReplayAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, tc := range []struct {
		name    string
		stamped bool
		want    float64
	}{
		{"unstamped", false, 0},
		{"stamped", true, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const participants, runs = 4, 400
			e, err := New(mechConfig(participants, 2*runs, 1))
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			i := 0
			got := testing.AllocsPerRun(runs, func() {
				r := mcs.Report{Fleet: "f", Participant: i % participants, Slot: i / participants, X: 1, Y: 2}
				if tc.stamped {
					r.IngestUnixMicro, r.Origin, r.TraceID = 1_700_000_000_000_000+int64(i), mcs.OriginRouter, uint64(i+1)
				}
				i++
				if err := e.Replay(r); err != nil {
					t.Fatal(err)
				}
			})
			if got != tc.want {
				t.Errorf("Replay allocates %v per %s record, want %v", got, tc.name, tc.want)
			}
		})
	}
}
