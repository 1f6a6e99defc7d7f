package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"itscs/internal/mat"
	"itscs/internal/mcs"
	"itscs/internal/wal"
)

// The recover workload: one durable backend at the ingest shape whose WAL
// holds the first 180 slots of the 24 fleets (about 580k records), with a
// checkpoint at the halfway mark. The backend is killed, then restarted
// again and again; each start reads the checkpoint, restores shards and
// ledger and replays the roughly 290k-record tail. It runs the wal and
// pipeline code that ingest appends with, reading instead of writing.
const recoverSlots = 180

// recoverSetups is how many times a recover pass builds its log on each
// side of its measurement.
const recoverSetups = 2

// crashState is a backend's directory after the crash, with the state the
// backend held when it died.
type crashState struct {
	cfg        backendConfig
	want       *wal.Checkpoint
	wantLedger []byte
	tail       uint64
}

// buildCrashState runs a backend in dir until its WAL holds the first
// recoverSlots slots of the seed's fleets, checkpointed halfway, then kills
// it.
func buildCrashState(p pass, dir string) (*crashState, error) {
	_, fleets, err := paperFleets(p.seed)
	if err != nil {
		return nil, err
	}
	var reports []mcs.Report
	next := make([]int, len(fleets))
	for s := 0; s < recoverSlots; s++ {
		for i, w := range fleets {
			for ; next[i] < len(w.Reports) && w.Reports[next[i]].Slot == s; next[i]++ {
				reports = append(reports, w.Reports[next[i]])
			}
		}
	}
	stamped := time.Now()
	for i := range reports {
		mcs.StampIngest(&reports[i], stamped, mcs.OriginRouter)
	}

	cs := &crashState{cfg: backendConfig{name: backendNames[0], engine: paperConfig(), dir: dir}}
	b, err := startBackend(cs.cfg)
	if err != nil {
		return nil, err
	}
	half := len(reports) / 2
	for i, r := range reports {
		if i == half {
			if err := b.checkpoint(nil, false); err != nil {
				_ = b.kill()
				return nil, err
			}
		}
		if err := b.engine.Ingest(r); err != nil {
			_ = b.kill()
			return nil, fmt.Errorf("build log: %w", err)
		}
	}
	if cs.want, err = b.engine.Checkpoint(); err != nil {
		_ = b.kill()
		return nil, err
	}
	if cs.wantLedger, err = b.ledger.MarshalBinary(); err != nil {
		_ = b.kill()
		return nil, err
	}
	cs.tail = uint64(len(reports) - half)
	return cs, b.kill()
}

func runRecover(p pass) (*outcome, error) {
	setups := 0
	build := func() (*crashState, error) {
		setups++
		return buildCrashState(p, setupDir(p, setups))
	}
	release := func(cs *crashState) error { return os.RemoveAll(cs.cfg.dir) }
	cs, took, err := setUp(recoverSetups, build, release)
	if err != nil {
		return nil, err
	}
	o := measureRecover(p, cs)
	if err := release(cs); err != nil {
		return nil, err
	}
	// buildCrashState never traces, so build serves both sides.
	more, err := setUpAgain(recoverSetups, build, release)
	if err != nil {
		return nil, err
	}
	o.setupS = quantile(append(took, more...), 0.5)
	return o, nil
}

// measureRecover restarts the crashed backend until the seconds are up
// and checks every restart against the state before the crash.
func measureRecover(p pass, cs *crashState) *outcome {
	o := &outcome{operations: "restarts"}
	beginMeasure()

	cfg := cs.cfg
	cfg.tr = p.tr
	var replayRate []float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < p.seconds; i++ {
		o.attempted++
		// A restarted daemon is a fresh process: start each restart from a
		// collected heap, not the previous incarnation's garbage.
		freeHeap()
		began := time.Now()
		b, err := startBackend(cfg)
		took := time.Since(began)
		if err != nil {
			o.failed++
			o.problem("restart %d: %v", i, err)
			continue
		}
		o.latencyMS = append(o.latencyMS, ms(took))
		replayRate = append(replayRate, float64(b.replayed)/b.replayTook.Seconds())
		bad := checkRecovered(b, cs.want, cs.wantLedger, cs.tail)
		if err := b.kill(); err != nil {
			bad = append(bad, err.Error())
		}
		if len(bad) > 0 {
			o.failed++
			o.problem("restart %d: %v", i, bad)
		}
	}
	o.peakRSSMB = peakRSSMB()
	o.layer = layerInputs{wallS: time.Since(start).Seconds()}
	// Replay speed, apart from the rest of start-up: records through
	// Log.Replay and Engine.Replay per second, median over restarts.
	o.reportsPerS = quantile(replayRate, 0.5)
	o.named = []namedMetric{{"recovery_s", "s", quantile(o.latencyMS, 0.5) / 1e3}}
	return o
}

// checkRecovered compares a restarted backend with the state it had
// before the crash: rings, window positions and ledger bytes equal, and
// the whole tail replayed.
func checkRecovered(b *backend, want *wal.Checkpoint, wantLedger []byte, tail uint64) []string {
	var bad []string
	if b.replayed != tail {
		bad = append(bad, fmt.Sprintf("log replayed %d records, tail is %d", b.replayed, tail))
	}
	if n := b.engine.Stats().Replayed; n != tail {
		bad = append(bad, fmt.Sprintf("engine applied %d replayed records, tail is %d", n, tail))
	}
	got, err := b.engine.Checkpoint()
	if err != nil {
		return append(bad, err.Error())
	}
	if d := diffCheckpoints(want, got); d != "" {
		bad = append(bad, d)
	}
	ledger, err := b.ledger.MarshalBinary()
	if err != nil {
		return append(bad, err.Error())
	}
	if !bytes.Equal(ledger, wantLedger) {
		bad = append(bad, fmt.Sprintf("ledger %d bytes differ from the %d before the crash", len(ledger), len(wantLedger)))
	}
	return bad
}

// diffCheckpoints describes the first difference between two engine
// snapshots, or returns "" when they are bitwise equal.
func diffCheckpoints(a, b *wal.Checkpoint) string {
	if a.LogIndex != b.LogIndex || len(a.Shards) != len(b.Shards) {
		return fmt.Sprintf("log index %d, %d shards; want %d, %d", b.LogIndex, len(b.Shards), a.LogIndex, len(a.Shards))
	}
	byFleet := func(s []wal.ShardCheckpoint) {
		sort.Slice(s, func(i, j int) bool { return s[i].Fleet < s[j].Fleet })
	}
	byFleet(a.Shards)
	byFleet(b.Shards)
	for i := range a.Shards {
		x, y := &a.Shards[i], &b.Shards[i]
		if x.Fleet != y.Fleet || x.Start != y.Start || x.Seq != y.Seq || x.WarmSeq != y.WarmSeq {
			return fmt.Sprintf("shard %s at %d/%d, want %s at %d/%d", y.Fleet, y.Start, y.Seq, x.Fleet, x.Start, x.Seq)
		}
		rings := [][2]*mat.Dense{{x.SX, y.SX}, {x.SY, y.SY}, {x.VX, y.VX}, {x.VY, y.VY}, {x.EX, y.EX}, {x.TS, y.TS},
			{x.WarmLX, y.WarmLX}, {x.WarmRX, y.WarmRX}, {x.WarmLY, y.WarmLY}, {x.WarmRY, y.WarmRY}}
		for j, m := range rings {
			if !sameBits(m[0], m[1]) {
				return fmt.Sprintf("shard %s matrix %d differs", x.Fleet, j)
			}
		}
	}
	return ""
}

func sameBits(a, b *mat.Dense) bool {
	if a == nil || b == nil {
		return a == b
	}
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc {
		return false
	}
	x, y := a.RawData(), b.RawData()
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}
