package main

import (
	"fmt"
	"sync"
	"time"

	"itscs/internal/pipeline"
	"itscs/internal/sim"
)

// The stream workload: 8 fleets of 16 participants sliding 48-slot windows
// by 16 slots, one slot due every 100 ms (about 1.1k reports/s after the
// sim corruption drops 15% of cells), open loop. Every fleet closes a
// window on the same slot (the paper's global τ), so the four windows a
// backend receives at once queue behind its one detection worker.
// Detection does most of the work; ingest runs far below capacity.
const (
	streamFleets          = 8
	streamParticipants    = 16
	streamWindow          = 48
	streamHop             = 16
	streamSlot            = 100 * time.Millisecond
	daemonCheckpointEvery = 4 // the daemon's default -checkpoint-every
	// resultWait bounds the wait for the last windows after the last slot.
	resultWait = 30 * time.Second
)

func fleetName(i int) string { return fmt.Sprintf("fleet-%02d", i) }

// streamScenario sizes the sim stream to cover the measured seconds,
// aligned to window + k·hop slots as sim requires.
func streamScenario(seconds time.Duration) sim.Scenario {
	slots := int(seconds / streamSlot)
	hops := (slots - streamWindow + streamHop - 1) / streamHop
	if hops < 1 {
		hops = 1
	}
	return sim.Scenario{
		Participants: streamParticipants,
		WindowSlots:  streamWindow,
		HopSlots:     streamHop,
		Slots:        streamWindow + hops*streamHop,
	}
}

// fleetSeed derives fleet i's generator seed from the run's seed.
func fleetSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

type windowResult struct {
	res *pipeline.WindowResult
	at  time.Time
}

// streamSetups is how many times a stream pass builds its inputs and
// cluster on each side of its measurement. One set-up takes under 0.1 s.
const streamSetups = 5

// streamRig is a built stream pass: inputs, cluster, subscribers and
// generator connections.
type streamRig struct {
	sc       sim.Scenario
	names    []string
	fleets   []*sim.FleetWorkload
	reports  int
	expected int // windows that close within the stream
	gen      *generator
	tb       *testbed

	mu      sync.Mutex
	got     []windowResult
	arrived chan struct{}
	subs    sync.WaitGroup
}

func newStreamRig(p pass, dir string) (*streamRig, error) {
	r := &streamRig{sc: streamScenario(p.seconds), arrived: make(chan struct{}, 1)}
	r.names = make([]string, streamFleets)
	r.fleets = make([]*sim.FleetWorkload, streamFleets)
	for i := range r.fleets {
		r.names[i] = fleetName(i)
		fsc := r.sc
		fsc.Seed = fleetSeed(p.seed, i)
		w, err := sim.BuildWorkload(r.names[i], fsc)
		if err != nil {
			return nil, err
		}
		r.fleets[i] = w
		// A window closes once a later slot's report arrives, so the fleet
		// expects every window ending at or before its last report's slot.
		last := w.Reports[len(w.Reports)-1].Slot
		r.expected += (last-streamWindow)/streamHop + 1
	}
	p.tr.setKeys(r.names, r.sc.Participants, r.sc.Slots)

	r.gen = newGenerator()
	encs := r.gen.encoders(0)
	// Slot-major order: every slot's reports of a connection form one write.
	next := make([]int, streamFleets)
	for s := 0; s < r.sc.Slots; s++ {
		for i, w := range r.fleets {
			for ; next[i] < len(w.Reports) && w.Reports[next[i]].Slot == s; next[i]++ {
				rep := w.Reports[next[i]]
				if err := encs[i%len(encs)].add(rep, p.tr.key(rep), 0, time.Duration(s)*streamSlot); err != nil {
					return nil, err
				}
				r.reports++
			}
		}
	}

	tb, err := startTestbed(sim.EngineConfig(r.sc), dir, daemonCheckpointEvery, 0, p.tr)
	if err != nil {
		return nil, err
	}
	r.tb = tb
	if err := tb.checkPlacement(r.names); err != nil {
		_ = r.stop()
		return nil, err
	}
	for _, b := range tb.backends {
		// The buffer holds more windows than a pass produces, so the
		// engine never drops a result for a slow collector. The channel
		// closes when the engine stops.
		ch, _ := b.engine.Subscribe(256)
		r.subs.Add(1)
		go func() {
			defer r.subs.Done()
			for res := range ch {
				at := time.Now()
				p.tr.received(res.Fleet, res.Seq, at)
				r.mu.Lock()
				r.got = append(r.got, windowResult{res, at})
				r.mu.Unlock()
				select {
				case r.arrived <- struct{}{}:
				default:
				}
			}
		}()
	}
	if err := r.gen.dial(tb.router.addr); err != nil {
		_ = r.stop()
		return nil, err
	}
	return r, nil
}

// waitResults waits until every expected window has arrived or the
// deadline passes.
func (r *streamRig) waitResults(deadline <-chan time.Time) {
	for {
		r.mu.Lock()
		done := len(r.got) >= r.expected
		r.mu.Unlock()
		if done {
			return
		}
		select {
		case <-r.arrived:
		case <-deadline:
			return
		}
	}
}

func (r *streamRig) stop() error {
	r.gen.close()
	err := r.tb.stop()
	r.subs.Wait()
	return err
}

func runStream(p pass) (*outcome, error) {
	o := &outcome{operations: "windows"}
	setups := 0
	build := func(p pass) func() (*streamRig, error) {
		return func() (*streamRig, error) {
			setups++
			return newStreamRig(p, setupDir(p, setups))
		}
	}
	r, took, err := setUp(streamSetups, build(p), (*streamRig).stop)
	if err != nil {
		return nil, err
	}
	defer r.stop()
	o.attempted = r.reports + r.expected
	beginMeasure()

	t0 := time.Now().Add(10 * time.Millisecond)
	st, err := r.gen.play(0, t0, p.tr)
	if err != nil {
		return nil, err
	}
	// The open-loop schedule sets the offered rate, so reports_per_s only
	// falls below it when the owners cannot keep up with the writes.
	lastApply, err := waitApplied(r.tb, uint64(st.ok))
	if err != nil {
		return nil, err
	}
	r.waitResults(time.After(resultWait))
	wall := time.Since(t0)
	o.peakRSSMB = peakRSSMB()
	o.layer = layerInputs{wallS: wall.Seconds(), fwd: r.tb.router.fwd.Stats(), engines: r.tb.engineStats()}
	applied := r.tb.ingested()
	if err := r.stop(); err != nil {
		return nil, err
	}
	more, err := setUpAgain(streamSetups, build(p.untraced()), (*streamRig).stop)
	if err != nil {
		return nil, err
	}
	o.setupS = quantile(append(took, more...), 0.5)

	for _, w := range r.got {
		due := t0.Add(time.Duration(w.res.EndSlot-1) * streamSlot)
		o.latencyMS = append(o.latencyMS, ms(w.at.Sub(due)))
	}
	o.reportsPerS = float64(applied) / lastApply.Sub(st.firstWrite).Seconds()
	o.named = []namedMetric{
		{"window_latency_p50_ms", "ms", quantile(o.latencyMS, 0.5)},
		{"window_latency_p90_ms", "ms", quantile(o.latencyMS, 0.9)},
	}

	dropped := 0
	for _, cs := range o.layer.fwd.Backends {
		dropped += int(cs.Dropped)
	}
	lostWindows := 0
	for _, es := range o.layer.engines {
		lostWindows += int(es.WindowsDropped + es.WindowsFailed)
	}
	missing := max(r.expected-len(r.got), 0)
	o.failed = st.refused + dropped + lostWindows + missing
	if st.refused > 0 {
		o.problem("%d reports refused, first: %s", st.refused, st.firstRefusal)
	}
	if missing > 0 || lostWindows > 0 {
		o.problem("%d of %d windows missing, %d dropped or failed", missing, r.expected, lostWindows)
	}
	checkGolden(o, r.sc, p.seed, r.fleets, r.got)
	return o, nil
}

// checkGolden compares every received window with sim.GoldenRun on the
// same fleet: flags and F1 must be bitwise equal. The reference runs
// after the measurement, on one goroutine per CPU.
func checkGolden(o *outcome, sc sim.Scenario, seed int64, fleets []*sim.FleetWorkload, got []windowResult) {
	byFleet := map[string]map[int]sim.WindowOutcome{}
	for _, w := range fleets {
		byFleet[w.Fleet] = map[int]sim.WindowOutcome{}
	}
	for _, w := range got {
		fw := fleets[fleetIndex(fleets, w.res.Fleet)]
		out, err := sim.Outcome(w.res, fw.Truth)
		if err != nil {
			o.problem("score %s window %d: %v", w.res.Fleet, w.res.Seq, err)
			continue
		}
		byFleet[w.res.Fleet][w.res.Seq] = out
	}
	problems := make([][]string, len(fleets))
	parallel(len(fleets), func(i int) {
		fsc := sc
		fsc.Seed = fleetSeed(seed, i)
		golden, err := sim.GoldenRun(fleets[i], fsc)
		if err != nil {
			problems[i] = []string{fmt.Sprintf("golden %s: %v", fleets[i].Fleet, err)}
			return
		}
		mine := byFleet[fleets[i].Fleet]
		ref := map[int]sim.WindowOutcome{}
		for seq := range mine {
			ref[seq] = golden[seq]
		}
		for _, v := range sim.VerifyWindows(ref, mine) {
			problems[i] = append(problems[i], fleets[i].Fleet+": "+v)
		}
	})
	for _, ps := range problems {
		for _, p := range ps {
			o.problem("%s", p)
		}
	}
}

func fleetIndex(fleets []*sim.FleetWorkload, name string) int {
	for i, w := range fleets {
		if w.Fleet == name {
			return i
		}
	}
	return -1
}
