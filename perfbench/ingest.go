package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"itscs/internal/pipeline"
	"itscs/internal/sim"
)

// The ingest workload: 24 fleets at the paper's shape (158 participants,
// 240-slot windows, 60-slot hop) streaming the 240 slots before their first
// window closes, so detection never runs. The generator writes pre-encoded
// lines as fast as TCP accepts them, in rounds of 20 slots (about 64k
// reports); a round ends when every report is applied by its owner. The
// door, the forward hop, WAL appends, admission and shard writes do all the
// work, over about 55 MB of ring buffers.
const (
	ingestFleets       = 24
	ingestParticipants = 158
	ingestWindow       = 240
	ingestHop          = 60
	ingestSlots        = ingestWindow // slot 240 would close the first window
	ingestRoundSlots   = 20
	ingestBatchLines   = 128
	applyWait          = time.Minute
)

// paperScenario is the paper's evaluation shape, streamed for ingestSlots.
func paperScenario() sim.Scenario {
	return sim.Scenario{
		Participants: ingestParticipants,
		WindowSlots:  ingestWindow,
		HopSlots:     ingestHop,
		Slots:        ingestSlots,
	}
}

// paperFleets builds the 24 paper-shape fleets of a seed, concurrently.
func paperFleets(seed int64) ([]string, []*sim.FleetWorkload, error) {
	names := make([]string, ingestFleets)
	fleets := make([]*sim.FleetWorkload, ingestFleets)
	errs := make([]error, ingestFleets)
	parallel(ingestFleets, func(i int) {
		names[i] = fleetName(i)
		sc := paperScenario()
		sc.Seed = fleetSeed(seed, i)
		fleets[i], errs[i] = sim.BuildWorkload(names[i], sc)
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return names, fleets, nil
}

// paperConfig is the engine every paper-shape backend runs.
func paperConfig() pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.Participants, cfg.WindowSlots, cfg.HopSlots = ingestParticipants, ingestWindow, ingestHop
	return cfg
}

// ingestSetups is how many times an ingest pass builds its inputs and
// cluster on each side of its measurement.
const ingestSetups = 2

// ingestRig is a built ingest pass: pre-encoded rounds, cluster and
// generator connections.
type ingestRig struct {
	gen *generator
	tb  *testbed
}

func newIngestRig(p pass, dir string) (*ingestRig, error) {
	names, fleets, err := paperFleets(p.seed)
	if err != nil {
		return nil, err
	}
	p.tr.setKeys(names, ingestParticipants, ingestSlots)
	r := &ingestRig{gen: newGenerator()}
	encs := r.gen.encoders(ingestBatchLines)
	next := make([]int, ingestFleets)
	perRound := make([]int, ingestSlots/ingestRoundSlots)
	for s := 0; s < ingestSlots; s++ {
		for i, w := range fleets {
			for ; next[i] < len(w.Reports) && w.Reports[next[i]].Slot == s; next[i]++ {
				rep := w.Reports[next[i]]
				if err := encs[i%len(encs)].add(rep, p.tr.key(rep), s/ingestRoundSlots, 0); err != nil {
					return nil, err
				}
				perRound[s/ingestRoundSlots]++
			}
		}
	}
	// A round is drained before the next starts, so a per-backend queue
	// that holds a whole round never drops: a slow forward hop queues
	// reports instead.
	if r.tb, err = startTestbed(paperConfig(), dir, daemonCheckpointEvery, slices.Max(perRound), p.tr); err != nil {
		return nil, err
	}
	if err := r.tb.checkPlacement(names); err != nil {
		_ = r.stop()
		return nil, err
	}
	if err := r.gen.dial(r.tb.router.addr); err != nil {
		_ = r.stop()
		return nil, err
	}
	return r, nil
}

func (r *ingestRig) stop() error {
	r.gen.close()
	return r.tb.stop()
}

func runIngest(p pass) (*outcome, error) {
	setups := 0
	build := func(p pass) func() (*ingestRig, error) {
		return func() (*ingestRig, error) {
			setups++
			return newIngestRig(p, setupDir(p, setups))
		}
	}
	r, took, err := setUp(ingestSetups, build(p), (*ingestRig).stop)
	if err != nil {
		return nil, err
	}
	o, err := measureIngest(p, r)
	if serr := r.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	more, err := setUpAgain(ingestSetups, build(p.untraced()), (*ingestRig).stop)
	if err != nil {
		return nil, err
	}
	o.setupS = quantile(append(took, more...), 0.5)
	return o, nil
}

// measureIngest plays rounds until the seconds are up and checks that
// the counts conserve.
func measureIngest(p pass, r *ingestRig) (*outcome, error) {
	o := &outcome{operations: "rounds"}
	tb := r.tb
	beginMeasure()

	var sent, ok, refused int
	var busy time.Duration
	start := time.Now()
	for round := 0; round*ingestRoundSlots < ingestSlots; round++ {
		if round > 0 && time.Since(start) >= p.seconds {
			break
		}
		began := time.Now()
		st, err := r.gen.play(round, began, p.tr)
		if err != nil {
			return nil, err
		}
		sent += st.sent
		ok += st.ok
		refused += st.refused
		if st.refused > 0 && o.problems == nil {
			o.problem("reports refused, first: %s", st.firstRefusal)
		}
		applied, err := waitApplied(tb, uint64(ok))
		if err != nil {
			return nil, err
		}
		took := applied.Sub(began)
		busy += took
		o.latencyMS = append(o.latencyMS, ms(took))
	}
	o.peakRSSMB = peakRSSMB()
	fwd := tb.router.fwd.Stats()
	o.layer = layerInputs{wallS: time.Since(start).Seconds(), fwd: fwd, engines: tb.engineStats()}
	o.reportsPerS = float64(sent) / busy.Seconds()
	o.named = []namedMetric{{"ingest_rps", "1/s", o.reportsPerS}}

	// Counts conserve: acked = forwarded = applied, nothing dropped, and
	// each owner's WAL holds exactly what it applied.
	applied := tb.ingested()
	var dropped uint64
	for _, cs := range fwd.Backends {
		dropped += cs.Dropped
	}
	if uint64(ok) != fwd.Forwarded || fwd.Forwarded != applied {
		o.problem("acked %d, forwarded %d, applied %d", ok, fwd.Forwarded, applied)
	}
	if dropped > 0 {
		o.problem("router clients dropped %d reports", dropped)
	}
	for i, b := range tb.backends {
		if idx, ing := b.log.AppendedIndex(), o.layer.engines[i].Ingested; idx != ing {
			o.problem("%s: WAL holds %d records, engine applied %d", b.name, idx, ing)
		}
	}
	o.attempted = sent
	o.failed = refused
	if uint64(ok) > applied {
		o.failed += ok - int(applied) // acked at the door but never applied
	}
	return o, nil
}

// waitApplied flushes the router's queues, waits until the owners have
// applied want reports and returns when it saw them applied.
func waitApplied(tb *testbed, want uint64) (time.Time, error) {
	ctx, cancel := context.WithTimeout(context.Background(), applyWait)
	defer cancel()
	if err := tb.router.fwd.Flush(ctx); err != nil {
		return time.Time{}, err
	}
	for tb.ingested() < want {
		select {
		case <-ctx.Done():
			return time.Time{}, fmt.Errorf("owners applied %d of %d reports", tb.ingested(), want)
		case <-time.After(time.Millisecond):
		}
	}
	return time.Now(), nil
}

// skew is the max/min ratio of reports applied per backend; 0 when a
// backend applied none.
func skew(st []pipeline.Stats) float64 {
	if len(st) == 0 {
		return 0
	}
	lo, hi := st[0].Ingested, st[0].Ingested
	for _, s := range st {
		lo, hi = min(lo, s.Ingested), max(hi, s.Ingested)
	}
	if lo == 0 {
		return 0
	}
	return float64(hi) / float64(lo)
}

// parallel runs fn(0..n-1) on one goroutine per CPU.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
