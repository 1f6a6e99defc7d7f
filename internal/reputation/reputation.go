// Package reputation maintains a per-fleet, per-participant trust ledger on
// top of the streaming pipeline: every completed detection window folds each
// participant's row of the detection matrix D — flagged-cell fraction,
// missing fraction, CHECK flip count and reconstruction residual — into an
// exponentially-decayed trust score with a Wilson-style lower confidence
// bound. Hysteresis thresholds on that bound drive a four-state machine
//
//	trusted → suspect → quarantined → probation → trusted
//
// whose transitions are all counted and observable. The ledger implements
// pipeline.AdmissionGate, so ingest tags (never drops) reports from
// quarantined or probation participants, and it serializes to a
// deterministic binary blob carried inside the shard checkpoint format —
// crash recovery restores the blob and replays the WAL tail, reproducing
// the ledger bit for bit under the harness's deterministic conditions
// (single worker, drained checkpoints; the same contract the per-window-F1
// identity invariant already relies on).
//
// The design follows the MCS quality literature the paper brackets out:
// truth-discovery systems weight workers by inferred reliability without
// ground truth, and location-fraud detectors profile submitters over time.
// Here the per-window verdicts of I(TS,CS) are the (noisy) reliability
// signal, and the decayed fold turns them into a persistent one.
package reputation

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"itscs/internal/pipeline"
)

// State is a participant's standing in the quarantine state machine.
type State uint8

const (
	// Trusted is the default standing; reports are admitted untagged.
	Trusted State = iota
	// Suspect marks a participant whose trust lower bound dipped below
	// Config.SuspectBelow — still admitted untagged, but one step from
	// quarantine.
	Suspect
	// Quarantined marks a participant whose lower bound fell below
	// Config.QuarantineBelow; their reports are admitted-and-tagged.
	Quarantined
	// Probation marks a quarantined participant whose bound recovered past
	// Config.ProbationAbove but has not yet reached Config.ReadmitAbove;
	// reports remain tagged (distinctly) until full readmission.
	Probation

	numStates = 4
)

// String names the state for JSON snapshots and metric labels.
func (s State) String() string {
	switch s {
	case Trusted:
		return "trusted"
	case Suspect:
		return "suspect"
	case Quarantined:
		return "quarantined"
	case Probation:
		return "probation"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// StateNames lists every state label in machine order, for metric exposition.
func StateNames() [numStates]string {
	return [numStates]string{"trusted", "suspect", "quarantined", "probation"}
}

// Config parameterizes the trust fold and the state machine. The threshold
// ordering QuarantineBelow < ProbationAbove < SuspectBelow < ReadmitAbove
// is what makes the machine hysteretic: a participant must climb strictly
// higher to leave a bad state than it fell to enter it, so a score
// hovering at a threshold cannot flap states every window.
type Config struct {
	// Decay is the per-window exponential decay of the evidence masses,
	// in (0,1). At 0.9 the effective memory is ~1/(1−Decay) = 10 windows.
	Decay float64
	// SuspectBelow demotes trusted → suspect when the Wilson lower bound
	// falls below it.
	SuspectBelow float64
	// QuarantineBelow demotes suspect → quarantined (and probation →
	// quarantined) below it.
	QuarantineBelow float64
	// ProbationAbove promotes quarantined → probation at or above it.
	ProbationAbove float64
	// ReadmitAbove promotes suspect → trusted and probation → trusted at
	// or above it.
	ReadmitAbove float64
	// MinWeight is the minimum decayed evidence mass before any transition
	// fires, so one bad first window cannot quarantine a newcomer. The
	// Wilson bound is loose at small mass — a clean newcomer's bound sits
	// ~0.25 under its score at weight 3 but only ~0.15 under it at weight
	// 5 — so MinWeight also sets how much slack newcomers get.
	MinWeight float64
	// MissingWeight scales the missing-cell fraction's contribution to a
	// window's badness; missing data is weak evidence of misbehaviour
	// (radio shadow looks the same), so it weighs less than a flag.
	MissingWeight float64
	// FlipWeight scales the CHECK flip fraction: cells CHECK flipped sat in
	// the ambiguous band between the clear and raise thresholds.
	FlipWeight float64
	// ResidualWeight scales the normalized reconstruction residual.
	ResidualWeight float64
	// ResidualScaleMeters normalizes the mean |S−Ŝ| residual; residuals at
	// or beyond it contribute the full ResidualWeight. The scale must sit
	// well above ordinary reconstruction error (hundreds of meters on clean
	// urban traces) and at the kilometers-scale deviations the paper
	// attributes to faulty data, or clean participants accrue fault mass
	// from normal matrix-completion noise.
	ResidualScaleMeters float64
	// Z is the Wilson interval's normal quantile. The default 1.0 is a
	// one-sided ~84% bound — enough skepticism to hold newcomers near
	// their score without dragging long-lived clean participants (whose
	// decayed mass asymptotes at 1/(1−Decay)) below the suspect line.
	Z float64
}

// DefaultConfig returns thresholds tuned for the default decay: a clean
// participant's bound asymptotes near 1/(1+Z²(1−Decay)) ≈ 0.91, a
// half-faulty participant's sinks below 0.35.
func DefaultConfig() Config {
	return Config{
		Decay:               0.9,
		SuspectBelow:        0.70,
		QuarantineBelow:     0.45,
		ProbationAbove:      0.55,
		ReadmitAbove:        0.75,
		MinWeight:           5,
		MissingWeight:       0.25,
		FlipWeight:          0.5,
		ResidualWeight:      0.5,
		ResidualScaleMeters: 5_000,
		Z:                   1.0,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Decay <= 0 || c.Decay >= 1:
		return fmt.Errorf("reputation: decay %v outside (0,1)", c.Decay)
	case c.QuarantineBelow <= 0 || c.ReadmitAbove >= 1:
		return fmt.Errorf("reputation: thresholds must sit inside (0,1)")
	case !(c.QuarantineBelow < c.ProbationAbove &&
		c.ProbationAbove < c.SuspectBelow &&
		c.SuspectBelow < c.ReadmitAbove):
		return fmt.Errorf("reputation: need quarantine %v < probation %v < suspect %v < readmit %v",
			c.QuarantineBelow, c.ProbationAbove, c.SuspectBelow, c.ReadmitAbove)
	case c.MinWeight < 1:
		return fmt.Errorf("reputation: min weight %v must be >= 1", c.MinWeight)
	case c.MissingWeight < 0 || c.FlipWeight < 0 || c.ResidualWeight < 0:
		return fmt.Errorf("reputation: badness weights must be non-negative")
	case c.ResidualScaleMeters <= 0:
		return fmt.Errorf("reputation: residual scale %v must be positive", c.ResidualScaleMeters)
	case c.Z <= 0:
		return fmt.Errorf("reputation: z %v must be positive", c.Z)
	}
	return nil
}

// participant is one row of the ledger.
type participant struct {
	weight    float64 // decayed evidence mass
	faultMass float64 // decayed badness mass
	state     State
	windows   uint64 // windows with observations folded
	observed  uint64 // cumulative observed cells
	flagged   uint64 // cumulative flagged cells
	flips     uint64 // cumulative CHECK flips
}

// fleetLedger is one fleet's rows plus its fold frontier.
type fleetLedger struct {
	lastSeq int // highest folded window seq; folds must arrive in order
	parts   []participant
}

// Ledger is the cross-window trust store. All methods are safe for
// concurrent use. Fold is wired to pipeline.Config.OnResult and Admit to
// pipeline.Config.Gate; both run on engine goroutines and never call back
// into the engine.
type Ledger struct {
	cfg Config

	mu          sync.RWMutex
	fleets      map[string]*fleetLedger
	transitions [numStates][numStates]uint64
	folded      uint64 // windows folded into the ledger
	skipped     uint64 // folds refused by the monotone-seq frontier
}

// New validates the configuration and returns an empty ledger.
func New(cfg Config) (*Ledger, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Ledger{cfg: cfg, fleets: make(map[string]*fleetLedger)}, nil
}

// Fold merges one completed window into the ledger. Folds are keyed on the
// window's (fleet, seq): a seq at or below the fleet's frontier is skipped
// and counted, which makes replay after a checkpoint restore idempotent —
// a window the restored blob already holds folds exactly once. The engine
// runs each fleet's windows in seq order, so no other fold is skipped.
func (l *Ledger) Fold(res *pipeline.WindowResult) {
	if res == nil || res.Output == nil || res.Output.Detection == nil ||
		res.Input.Existence == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	fl := l.fleets[res.Fleet]
	if fl == nil {
		n, _ := res.Output.Detection.Dims()
		fl = &fleetLedger{lastSeq: -1, parts: make([]participant, n)}
		l.fleets[res.Fleet] = fl
	}
	if res.Seq <= fl.lastSeq {
		l.skipped++
		return
	}
	fl.lastSeq = res.Seq
	l.folded++

	n, w := res.Output.Detection.Dims()
	if n > len(fl.parts) {
		fl.parts = append(fl.parts, make([]participant, n-len(fl.parts))...)
	}
	for i := 0; i < n; i++ {
		obs, flags, resid := rowEvidence(res, i, w)
		if obs == 0 {
			continue // no observations: no evidence either way
		}
		flips := 0
		if i < len(res.Output.RowFlips) {
			flips = res.Output.RowFlips[i]
		}
		p := &fl.parts[i]
		p.windows++
		p.observed += uint64(obs)
		p.flagged += uint64(flags)
		p.flips += uint64(flips)

		badness := l.badness(obs, flags, flips, w, resid)
		p.weight = p.weight*l.cfg.Decay + 1
		p.faultMass = p.faultMass*l.cfg.Decay + badness
		l.step(p)
	}
}

// rowEvidence extracts one participant row's window verdict: observed cell
// count, flagged cell count, and the mean reconstruction residual in meters
// over observed cells (averaged across the two axes).
func rowEvidence(res *pipeline.WindowResult, i, w int) (obs, flags int, resid float64) {
	eRow := res.Input.Existence.RowView(i)
	dRow := res.Output.Detection.RowView(i)
	var haveHat bool
	var sxRow, syRow, xhRow, yhRow []float64
	if res.Input.SX != nil && res.Input.SY != nil &&
		res.Output.XHat != nil && res.Output.YHat != nil {
		haveHat = true
		sxRow, syRow = res.Input.SX.RowView(i), res.Input.SY.RowView(i)
		xhRow, yhRow = res.Output.XHat.RowView(i), res.Output.YHat.RowView(i)
	}
	var residSum float64
	for j := 0; j < w; j++ {
		if eRow[j] == 0 {
			continue
		}
		obs++
		if dRow[j] != 0 {
			flags++
		}
		if haveHat {
			residSum += (math.Abs(sxRow[j]-xhRow[j]) + math.Abs(syRow[j]-yhRow[j])) / 2
		}
	}
	if obs > 0 && haveHat {
		resid = residSum / float64(obs)
	}
	return obs, flags, resid
}

// badness scores one window's evidence against a participant in [0,1]:
// the flagged fraction plus down-weighted missing, flip and residual terms.
func (l *Ledger) badness(obs, flags, flips, w int, resid float64) float64 {
	flaggedFrac := float64(flags) / float64(obs)
	missingFrac := float64(w-obs) / float64(w)
	flipFrac := math.Min(float64(flips)/float64(obs), 1)
	residNorm := math.Min(resid/l.cfg.ResidualScaleMeters, 1)
	b := flaggedFrac +
		l.cfg.MissingWeight*missingFrac +
		l.cfg.FlipWeight*flipFrac +
		l.cfg.ResidualWeight*residNorm
	return math.Min(b, 1)
}

// score is the decayed trust estimate in [0,1].
func (p *participant) score() float64 {
	if p.weight == 0 {
		return 1
	}
	return 1 - p.faultMass/p.weight
}

// wilsonLower is the Wilson score interval's lower bound with the decayed
// evidence mass standing in for the trial count: skeptical at low mass,
// converging to the raw score as evidence accumulates.
func (l *Ledger) wilsonLower(p *participant) float64 {
	if p.weight == 0 {
		return 1
	}
	n, phat, z := p.weight, p.score(), l.cfg.Z
	z2 := z * z
	denom := 1 + z2/n
	center := phat + z2/(2*n)
	margin := z * math.Sqrt(phat*(1-phat)/n+z2/(4*n*n))
	return (center - margin) / denom
}

// step advances the participant's state machine after a fold. Callers hold
// l.mu.
func (l *Ledger) step(p *participant) {
	if p.weight < l.cfg.MinWeight {
		return
	}
	lower := l.wilsonLower(p)
	next := p.state
	switch p.state {
	case Trusted:
		if lower < l.cfg.SuspectBelow {
			next = Suspect
		}
	case Suspect:
		switch {
		case lower < l.cfg.QuarantineBelow:
			next = Quarantined
		case lower >= l.cfg.ReadmitAbove:
			next = Trusted
		}
	case Quarantined:
		if lower >= l.cfg.ProbationAbove {
			next = Probation
		}
	case Probation:
		switch {
		case lower < l.cfg.QuarantineBelow:
			next = Quarantined
		case lower >= l.cfg.ReadmitAbove:
			next = Trusted
		}
	}
	if next != p.state {
		l.transitions[p.state][next]++
		p.state = next
	}
}

// Admit implements pipeline.AdmissionGate: reports from quarantined
// participants are tagged AdmitQuarantined, probation participants
// AdmitProbation, everyone else (including never-seen fleets or rows)
// admitted clean. It never refuses.
func (l *Ledger) Admit(fleet string, part int) pipeline.Admission {
	l.mu.RLock()
	defer l.mu.RUnlock()
	fl := l.fleets[fleet]
	if fl == nil || part < 0 || part >= len(fl.parts) {
		return pipeline.AdmitClean
	}
	switch fl.parts[part].state {
	case Quarantined:
		return pipeline.AdmitQuarantined
	case Probation:
		return pipeline.AdmitProbation
	}
	return pipeline.AdmitClean
}

// ParticipantSnapshot is one ledger row, shaped for the HTTP API.
type ParticipantSnapshot struct {
	Participant int     `json:"participant"`
	State       string  `json:"state"`
	Score       float64 `json:"score"`
	LowerBound  float64 `json:"lower_bound"`
	Weight      float64 `json:"weight"`
	Windows     uint64  `json:"windows"`
	Observed    uint64  `json:"observed_cells"`
	Flagged     uint64  `json:"flagged_cells"`
	Flips       uint64  `json:"check_flips"`
}

// FleetSnapshot is one fleet's ledger: every participant with folded
// evidence, plus the per-state census (rows without evidence are omitted
// from both — an inactive fleet slot is not a trusted participant).
type FleetSnapshot struct {
	Fleet        string                `json:"fleet"`
	LastSeq      int                   `json:"last_seq"`
	States       map[string]int        `json:"states"`
	Participants []ParticipantSnapshot `json:"participants"`
}

// TransitionCount is one observed state-machine edge.
type TransitionCount struct {
	From  string `json:"from"`
	To    string `json:"to"`
	Count uint64 `json:"count"`
}

// LedgerStats summarizes the ledger for /metrics.
type LedgerStats struct {
	Fleets      int               `json:"fleets"`
	Folded      uint64            `json:"windows_folded"`
	Skipped     uint64            `json:"folds_skipped"`
	States      map[string]int    `json:"participants_by_state"`
	Transitions []TransitionCount `json:"transitions,omitempty"`
}

// Snapshot is the whole ledger, shaped for the HTTP API and the router's
// scatter-gather merge (fleets are sharded whole, so per-backend snapshots
// union without key collisions).
type Snapshot struct {
	Fleets []FleetSnapshot `json:"fleets"`
	Stats  LedgerStats     `json:"stats"`
}

// Snapshot copies the ledger, fleets sorted by name.
func (l *Ledger) Snapshot() Snapshot {
	l.mu.RLock()
	defer l.mu.RUnlock()
	names := make([]string, 0, len(l.fleets))
	for name := range l.fleets {
		names = append(names, name)
	}
	sort.Strings(names)
	s := Snapshot{Stats: l.statsLocked()}
	for _, name := range names {
		s.Fleets = append(s.Fleets, l.fleetSnapshotLocked(name))
	}
	return s
}

// Fleet returns one fleet's snapshot; ok is false for an unknown fleet.
func (l *Ledger) Fleet(name string) (FleetSnapshot, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.fleets[name] == nil {
		return FleetSnapshot{}, false
	}
	return l.fleetSnapshotLocked(name), true
}

// Participant returns one row's snapshot; ok is false when the fleet is
// unknown or the row has no folded evidence.
func (l *Ledger) Participant(fleet string, part int) (ParticipantSnapshot, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	fl := l.fleets[fleet]
	if fl == nil || part < 0 || part >= len(fl.parts) || fl.parts[part].windows == 0 {
		return ParticipantSnapshot{}, false
	}
	return l.participantSnapshotLocked(fl, part), true
}

// Stats snapshots the ledger's aggregate counters.
func (l *Ledger) Stats() LedgerStats {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.statsLocked()
}

func (l *Ledger) statsLocked() LedgerStats {
	st := LedgerStats{
		Fleets:  len(l.fleets),
		Folded:  l.folded,
		Skipped: l.skipped,
		States:  map[string]int{},
	}
	for _, name := range StateNames() {
		st.States[name] = 0
	}
	for _, fl := range l.fleets {
		for i := range fl.parts {
			if fl.parts[i].windows > 0 {
				st.States[fl.parts[i].state.String()]++
			}
		}
	}
	names := StateNames()
	for from := 0; from < numStates; from++ {
		for to := 0; to < numStates; to++ {
			if n := l.transitions[from][to]; n != 0 {
				st.Transitions = append(st.Transitions, TransitionCount{
					From: names[from], To: names[to], Count: n,
				})
			}
		}
	}
	return st
}

func (l *Ledger) fleetSnapshotLocked(name string) FleetSnapshot {
	fl := l.fleets[name]
	fs := FleetSnapshot{Fleet: name, LastSeq: fl.lastSeq, States: map[string]int{}}
	for _, sn := range StateNames() {
		fs.States[sn] = 0
	}
	for i := range fl.parts {
		if fl.parts[i].windows == 0 {
			continue
		}
		fs.States[fl.parts[i].state.String()]++
		fs.Participants = append(fs.Participants, l.participantSnapshotLocked(fl, i))
	}
	return fs
}

func (l *Ledger) participantSnapshotLocked(fl *fleetLedger, i int) ParticipantSnapshot {
	p := &fl.parts[i]
	return ParticipantSnapshot{
		Participant: i,
		State:       p.state.String(),
		Score:       p.score(),
		LowerBound:  l.wilsonLower(p),
		Weight:      p.weight,
		Windows:     p.windows,
		Observed:    p.observed,
		Flagged:     p.flagged,
		Flips:       p.flips,
	}
}
