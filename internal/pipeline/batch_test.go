package pipeline

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"itscs/internal/mcs"
	"itscs/internal/wal"
)

// quarantineOdd is an AdmissionGate that tags odd participants.
type quarantineOdd struct{}

func (quarantineOdd) Admit(_ string, participant int) Admission {
	if participant%2 == 1 {
		return AdmitQuarantined
	}
	return AdmitClean
}

// batchRun is one engine's observable outcome: every verdict, the logged
// records in order, the OnWindowClose calls, and the final stats and
// checkpoint.
type batchRun struct {
	verdicts []string
	logged   []mcs.Report
	closes   []uint64
	stats    Stats
	ck       *wal.Checkpoint
}

// runBatches feeds the batches to a fresh engine, each batch either as one
// IngestBatch call or as one Ingest per report, then closes the engine
// (draining every window through its single worker) and checkpoints it.
func runBatches(t *testing.T, batches [][]mcs.Report, fail map[int]error, batched bool) batchRun {
	t.Helper()
	var run batchRun
	log := &fakeLog{}
	cfg := mechConfig(4, 4, 2)
	cfg.Workers = 1
	cfg.MaxFleets = 2
	cfg.Log = log
	cfg.Gate = quarantineOdd{}
	cfg.OnWindowClose = func(total uint64) { run.closes = append(run.closes, total) }
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for b, rs := range batches {
		log.mu.Lock()
		log.fail = fail[b]
		log.mu.Unlock()
		errs := make([]error, len(rs))
		if batched {
			e.IngestBatch(rs, errs)
		} else {
			for i, r := range rs {
				errs[i] = e.Ingest(r)
			}
		}
		for _, err := range errs {
			run.verdicts = append(run.verdicts, fmt.Sprint(err))
		}
	}
	e.Close()
	run.logged = log.records
	run.stats = e.Stats()
	// Latency histograms time the run, not the outcome.
	run.stats.PhaseLatency = nil
	run.stats.AgeAtClose, run.stats.IngestToResult = HistogramSnapshot{}, HistogramSnapshot{}
	for f, ff := range run.stats.Freshness {
		ff.AgeAtClose, ff.IngestToResult = HistogramSnapshot{}, HistogramSnapshot{}
		run.stats.Freshness[f] = ff
	}
	if run.ck, err = e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sort.Slice(run.ck.Shards, func(i, j int) bool { return run.ck.Shards[i].Fleet < run.ck.Shards[j].Fleet })
	return run
}

// TestIngestBatchMatchesSequentialIngest pins the batch path to the
// one-report path: the same batches give the same verdicts, log records,
// window-close calls, stats and checkpoint whether each goes to
// IngestBatch whole or to Ingest one report at a time.
func TestIngestBatchMatchesSequentialIngest(t *testing.T) {
	at := func(fleet string, p, slot int) mcs.Report {
		r := report(p, slot, float64(10*p+slot)+0.5)
		r.Fleet = fleet
		return r
	}
	stamped := at("a", 2, 3)
	stamped.IngestUnixMicro, stamped.Origin, stamped.TraceID = 1_700_000_000_000_000, mcs.OriginDirect, 77
	nan := at("a", 1, 1)
	nan.Y = math.NaN()
	batches := [][]mcs.Report{
		// Valid reports, each check's rejection, and a duplicate.
		{at("a", 0, 0), at("a", 1, 0), at("a", 9, 0), at("a", 2, -1), nan, at("a", 0, 0), stamped, at("a", 3, 1)},
		// Closes [0,4) and then a late report for the slid-off slot 1, a
		// second fleet, and a third refused by MaxFleets.
		{at("a", 0, 4), at("a", 1, 5), at("a", 2, 1), at("b", 0, 0), at("c", 0, 0), at("a", 3, 4)},
		// One survivor whose append fails: refused, not applied.
		{at("a", -1, 6), at("a", 0, 6), nan},
		// The same cell again, now accepted, and a catch-up close.
		{at("a", 0, 6), at("b", 1, 30), at("a", 1, 7)},
	}
	fail := map[int]error{2: errors.New("disk full")}

	seq := runBatches(t, batches, fail, false)
	bat := runBatches(t, batches, fail, true)
	if !reflect.DeepEqual(seq.verdicts, bat.verdicts) {
		t.Errorf("verdicts differ:\nsequential %q\nbatched    %q", seq.verdicts, bat.verdicts)
	}
	if !reflect.DeepEqual(seq.logged, bat.logged) {
		t.Errorf("logged records differ:\nsequential %+v\nbatched    %+v", seq.logged, bat.logged)
	}
	if !reflect.DeepEqual(seq.closes, bat.closes) {
		t.Errorf("OnWindowClose calls differ: sequential %v, batched %v", seq.closes, bat.closes)
	}
	if !reflect.DeepEqual(seq.stats, bat.stats) {
		t.Errorf("stats differ:\nsequential %+v\nbatched    %+v", seq.stats, bat.stats)
	}
	if !reflect.DeepEqual(seq.ck, bat.ck) {
		t.Error("checkpoints differ")
	}

	// The fixture must reach every path it claims to.
	st := seq.stats
	if st.Duplicates == 0 || st.Late == 0 || st.NonFinite == 0 || st.WindowsClosed == 0 ||
		st.TaggedQuarantined == 0 || st.ReportsStamped == 0 || len(seq.closes) < 2 {
		t.Errorf("fixture misses a path: %+v, closes %v", st, seq.closes)
	}
	for _, want := range []string{"too many fleets", "disk full", "outside [0,4)", "negative slot"} {
		found := false
		for _, v := range seq.verdicts {
			found = found || strings.Contains(v, want)
		}
		if !found {
			t.Errorf("no verdict mentions %q: %q", want, seq.verdicts)
		}
	}
}

// TestIngestBatchConcurrent races batches from several producers against
// checkpoints: every report is logged and ingested exactly once, and each
// checkpoint's log index is a lower bound of what its shards hold.
func TestIngestBatchConcurrent(t *testing.T) {
	const producers, batches, size = 4, 30, 8
	log := &fakeLog{}
	cfg := mechConfig(producers, 1024, 1)
	cfg.Log = log
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				rs := make([]mcs.Report, size)
				for i := range rs {
					rs[i] = report(p, b*size+i, 1)
				}
				errs := make([]error, size)
				e.IngestBatch(rs, errs)
				for _, err := range errs {
					if err != nil {
						t.Error(err)
					}
				}
			}
		}(p)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			ck, err := e.Checkpoint()
			if err != nil {
				t.Error(err)
				return
			}
			held := 0
			for _, sh := range ck.Shards {
				for _, v := range sh.EX.RawData() {
					held += int(v)
				}
			}
			if uint64(held) < ck.LogIndex {
				t.Errorf("checkpoint at log index %d holds only %d cells", ck.LogIndex, held)
			}
		}
	}()
	wg.Wait()
	<-done
	const total = producers * batches * size
	if st := e.Stats(); st.Ingested != total || log.len() != total {
		t.Fatalf("ingested %d, logged %d, want %d", st.Ingested, log.len(), total)
	}
}
