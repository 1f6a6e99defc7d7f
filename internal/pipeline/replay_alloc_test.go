package pipeline

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"itscs/internal/fault"
	"itscs/internal/mcs"
)

// stampedReport is the i-th report of a stream over participants, stamped
// as a router door would stamp it when stamped is set.
func stampedReport(i, participants int, stamped bool) mcs.Report {
	r := mcs.Report{Fleet: "f", Participant: i % participants, Slot: i / participants, X: 1, Y: 2}
	if stamped {
		r.IngestUnixMicro, r.Origin, r.TraceID = 1_700_000_000_000_000+int64(i), mcs.OriginRouter, uint64(i+1)
	}
	return r
}

// TestReplayAllocs pins what one replayed record costs the heap when it
// closes no window: nothing, stamped or not. Opening a trace only stores
// into the fleet's preallocated trace table. Recovery replays every record
// of the log tail through this call, so one more allocation here is one
// more per replayed record.
func TestReplayAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, tc := range []struct {
		name    string
		stamped bool
	}{
		{"unstamped", false},
		{"stamped", true},
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
				r := stampedReport(i, participants, tc.stamped)
				i++
				if err := e.Replay(r); err != nil {
					t.Fatal(err)
				}
			})
			if got != 0 {
				t.Errorf("Replay allocates %v per %s record, want 0", got, tc.name)
			}
			want := 0
			if tc.stamped {
				want = e.cfg.TraceDepth
			}
			if n := e.lookup("f").traces.Len(); n != want {
				t.Errorf("trace table holds %d traces, want %d", n, want)
			}
		})
	}
}

// TestIngestBatchAllocs is TestReplayAllocs for the live door: a batch of
// stamped reports on an engine with no log opens every report's trace and
// allocates only the call's one shard slice, nothing per report.
func TestIngestBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const participants, batch, runs = 4, 32, 100
	e, err := New(mechConfig(participants, 2*batch*runs/participants, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rs, errs := make([]mcs.Report, batch), make([]error, batch)
	i := 0
	got := testing.AllocsPerRun(runs, func() {
		for j := range rs {
			rs[j] = stampedReport(i, participants, true)
			i++
		}
		e.IngestBatch(rs, errs)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	if got != 1 {
		t.Errorf("IngestBatch of %d stamped reports allocates %v, want 1", batch, got)
	}
	if n := e.lookup("f").traces.Len(); n != e.cfg.TraceDepth {
		t.Errorf("trace table holds %d traces, want a full table of %d", n, e.cfg.TraceDepth)
	}
}

// tickingClock advances one microsecond on every Now, so a reading's value
// tells which read it was.
type tickingClock struct {
	fault.Clock
	reads atomic.Int64
}

func (c *tickingClock) Now() time.Time { return time.UnixMicro(c.reads.Add(1)) }

// TestReplayCommitClockConcurrent pins the replayed wal_commit stage: the
// clock is read once per replayClockEvery stamped replayed records (plus
// at most once per goroutine that races the first read), and every
// record's stage is a reading taken before its Replay returned. Each
// goroutine replays its own fleet, as recovery's callers may run side by
// side; run under -race this also pins the shared reading's publication.
func TestReplayCommitClockConcurrent(t *testing.T) {
	for _, goroutines := range []int{1, 4} {
		t.Run(fmt.Sprintf("goroutines=%d", goroutines), func(t *testing.T) {
			const participants, perG = 4, 2500
			clock := &tickingClock{Clock: fault.RealClock()}
			cfg := mechConfig(participants, perG, 1)
			cfg.Clock, cfg.TraceDepth = clock, perG
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(fleet string) {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						r := stampedReport(i, participants, true)
						r.Fleet = fleet
						if err := e.Replay(r); err != nil {
							errs <- err
							return
						}
						after := clock.reads.Load()
						tr, ok := e.FindTrace(fleet, r.TraceID)
						if !ok || len(tr.Stages) < 2 || tr.Stages[1].Name != "wal_commit" {
							errs <- fmt.Errorf("record %d of %s: trace %+v, %v", i, fleet, tr, ok)
							return
						}
						if at := tr.Stages[1].AtUnixMicro; at < 1 || at > after {
							errs <- fmt.Errorf("record %d of %s: wal_commit read %d, but only %d reads before its Replay returned", i, fleet, at, after)
							return
						}
					}
				}(fmt.Sprintf("f%d", g))
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			records := goroutines * perG
			if reads, most := clock.reads.Load(), int64((records+replayClockEvery-1)/replayClockEvery+goroutines-1); reads > most {
				t.Errorf("%d stamped replays read the clock %d times, want at most %d", records, reads, most)
			}
		})
	}
}
