// Package fault provides the seams the deterministic fault-injection
// harness plugs into: an injectable filesystem (write/sync/rename errors,
// torn writes), a virtual clock, and a flaky net.Conn wrapper. Production
// code holds these seams with the pass-through implementations (OS
// filesystem, wall clock, raw connection) so the real paths are unchanged;
// the simulation suite (internal/sim) swaps in seeded injectors and replays
// the exact same fault sequence from a single integer.
//
// Determinism is the design constraint throughout: every fault decision is
// drawn from a stat.RNG stream derived from Plan.Seed and consumed in
// operation order, so two runs of the same single-threaded workload see
// byte-identical fault schedules. (Concurrent workloads serialize decisions
// on the injector's mutex; determinism then requires the caller to impose a
// deterministic operation order, which the sim runner does by driving
// ingestion from one goroutine.)
package fault

import (
	"errors"
	"fmt"
	"sync"

	"itscs/internal/stat"
)

// ErrInjected marks every error produced by the harness, so tests and
// invariant checks can tell an injected failure from a real one.
var ErrInjected = errors.New("fault: injected")

// Op classifies the filesystem operations the injector can fail.
type Op int

const (
	OpWrite Op = iota
	OpSync
	OpRename
	OpRemove
	OpTruncate
	OpOpen
	OpCreate
	opCount
)

func (o Op) String() string {
	switch o {
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	case OpTruncate:
		return "truncate"
	case OpOpen:
		return "open"
	case OpCreate:
		return "create"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Plan parameterizes one seeded fault schedule. Zero probabilities make the
// injector a pass-through; the zero value is therefore safe everywhere.
type Plan struct {
	// Seed drives every fault decision. Identical plans replay identical
	// fault schedules over identical operation sequences.
	Seed int64
	// PWriteErr, PSyncErr, PRenameErr, PRemoveErr, POpenErr are the
	// per-operation failure probabilities in [0,1).
	PWriteErr  float64
	PSyncErr   float64
	PRenameErr float64
	PRemoveErr float64
	POpenErr   float64
	// PTornWrite is the probability a failing write is torn: a seeded
	// prefix of the buffer reaches the file before the error, the partial
	// frame a crash mid-write leaves behind.
	PTornWrite float64
	// After suppresses all faults for the first After operations, letting a
	// scenario set up cleanly before the weather turns.
	After uint64
	// MaxFaults caps the total injected failures (0 = unlimited), so a
	// scenario can guarantee forward progress.
	MaxFaults int
}

// Injector makes seeded fault decisions. All methods are safe for
// concurrent use; decisions are consumed in the serialized operation order.
type Injector struct {
	mu     sync.Mutex
	plan   Plan
	rng    *stat.RNG
	ops    uint64
	faults int
	log    []Record
}

// Record is one injected fault, retained for reproducibility checks.
type Record struct {
	Op   Op
	Name string
	// Seq is the global operation counter at injection time.
	Seq uint64
	// Torn reports a torn write (prefix persisted before the error).
	Torn bool
}

// NewInjector returns an injector following the plan.
func NewInjector(plan Plan) *Injector {
	return &Injector{plan: plan, rng: stat.NewRNG(plan.Seed).Child("fault")}
}

// decide consumes one decision for op against name. It returns the error to
// inject (nil for a clean pass) and, for writes, how many bytes of an
// n-byte buffer should be persisted before failing (n on a clean pass).
func (in *Injector) decide(op Op, name string, n int) (error, int) {
	if in == nil {
		return nil, n
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	seq := in.ops
	in.ops++
	var p float64
	switch op {
	case OpWrite:
		p = in.plan.PWriteErr
	case OpSync:
		p = in.plan.PSyncErr
	case OpRename:
		p = in.plan.PRenameErr
	case OpRemove, OpTruncate:
		p = in.plan.PRemoveErr
	case OpOpen, OpCreate:
		p = in.plan.POpenErr
	}
	if p == 0 {
		return nil, n
	}
	// One uniform draw per fault-eligible operation keeps the stream
	// aligned regardless of which operations ultimately fail.
	hit := in.rng.Bool(p)
	if seq < in.plan.After || (in.plan.MaxFaults > 0 && in.faults >= in.plan.MaxFaults) {
		return nil, n
	}
	if !hit {
		return nil, n
	}
	in.faults++
	rec := Record{Op: op, Name: name, Seq: seq}
	keep := n
	if op == OpWrite && n > 0 && in.rng.Bool(in.plan.PTornWrite) {
		keep = in.rng.Intn(n) // persist a strict prefix: the torn write
		rec.Torn = true
	} else if op == OpWrite {
		keep = 0
	}
	in.log = append(in.log, rec)
	return fmt.Errorf("%w: %s %s (op %d)", ErrInjected, op, name, seq), keep
}

// Faults snapshots the injected-fault log, in injection order.
func (in *Injector) Faults() []Record {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Record(nil), in.log...)
}
