package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"itscs/internal/fault"
	"itscs/internal/obs"
)

// ProbeFunc checks one backend's readiness; nil means ready.
type ProbeFunc func(ctx context.Context, b Backend) error

// HTTPReadyProbe probes GET /readyz on the backend's HTTP sidecar,
// treating any status but 200 as not ready. A recovering itscs-serve
// answers 503 there until its checkpoint restore and WAL replay finish, so
// the router withholds traffic the backend would only queue behind
// recovery. client nil uses a default with no timeout of its own — the
// prober's per-probe context supplies the deadline.
func HTTPReadyProbe(client *http.Client) ProbeFunc {
	if client == nil {
		client = &http.Client{}
	}
	return func(ctx context.Context, b Backend) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+b.HTTP+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("readyz status %d", resp.StatusCode)
		}
		return nil
	}
}

// ProberOptions parameterizes a Prober; zero values take defaults.
type ProberOptions struct {
	// Interval is the sweep cadence (default 2s); Timeout bounds each
	// individual probe (default 1s).
	Interval time.Duration
	Timeout  time.Duration
	// Clock supplies the sweep ticker (default wall clock); the fault
	// harness swaps in a virtual clock. Probe I/O deadlines always use wall
	// time.
	Clock fault.Clock
	// Probe checks one backend (default HTTPReadyProbe(nil)).
	Probe ProbeFunc
	// OnChange, if set, fires on every eject and readmit, after the gate
	// has moved. It runs on the sweep goroutine; keep it cheap.
	OnChange func(b Backend, ready bool)
	// Log receives eject/readmit events (nil discards).
	Log *slog.Logger
}

// BackendStatus is one backend's health as the prober sees it.
type BackendStatus struct {
	Backend Backend `json:"backend"`
	Ready   bool    `json:"ready"`
	// LastErr is the most recent probe failure ("" after a success).
	LastErr string `json:"last_err,omitempty"`
	// Probes counts sweeps that touched this backend; Ejections and
	// Readmissions count gate transitions.
	Probes       uint64 `json:"probes"`
	Ejections    uint64 `json:"ejections"`
	Readmissions uint64 `json:"readmissions"`
}

// Prober sweeps every backend's readiness on a fixed cadence and maintains
// the traffic gate the Forwarder and Query consult. Backends start
// unready; Start's immediate first sweep admits the live ones before any
// traffic is routed, so a router pointed at a dead backend never forwards
// into the void.
type Prober struct {
	backends []Backend
	opt      ProberOptions

	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
	started bool // set by Start before the goroutine exists

	mu    sync.Mutex
	state map[string]*probeState
}

type probeState struct {
	status   BackendStatus
	everseen bool
}

// NewProber builds a prober over the backend list. Call Start to begin
// sweeping, or Sweep directly for deterministic tests.
func NewProber(backends []Backend, opt ProberOptions) *Prober {
	if opt.Interval <= 0 {
		opt.Interval = 2 * time.Second
	}
	if opt.Timeout <= 0 {
		opt.Timeout = time.Second
	}
	if opt.Clock == nil {
		opt.Clock = fault.RealClock()
	}
	if opt.Probe == nil {
		opt.Probe = HTTPReadyProbe(nil)
	}
	if opt.Log == nil {
		opt.Log = obs.Discard()
	}
	p := &Prober{
		backends: backends,
		opt:      opt,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		state:    make(map[string]*probeState, len(backends)),
	}
	for _, b := range backends {
		p.state[b.Name] = &probeState{status: BackendStatus{Backend: b}}
	}
	return p
}

// Start launches the sweep loop: one immediate sweep, then one per
// interval until Close.
func (p *Prober) Start() {
	p.started = true
	go func() {
		defer close(p.done)
		p.Sweep(context.Background())
		t := p.opt.Clock.NewTicker(p.opt.Interval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C():
				p.Sweep(context.Background())
			}
		}
	}()
}

// Close stops the sweep loop and waits for it. Safe to call without Start
// and idempotent.
func (p *Prober) Close() {
	p.once.Do(func() { close(p.stop) })
	if p.started {
		<-p.done
	}
}

// Sweep probes every backend once, sequentially, and moves the gates.
// Exported so tests can drive health transitions deterministically instead
// of waiting out probe intervals.
func (p *Prober) Sweep(ctx context.Context) {
	for _, b := range p.backends {
		pctx, cancel := context.WithTimeout(ctx, p.opt.Timeout)
		err := p.opt.Probe(pctx, b)
		cancel()
		p.record(b, err)
	}
}

// record applies one probe outcome to the backend's gate: the first
// failure ejects, the first success admits. A dead TCP port refuses
// instantly and a recovering backend answers 503 decisively, so the gate
// follows the first honest answer.
func (p *Prober) record(b Backend, err error) {
	p.mu.Lock()
	st := p.state[b.Name]
	st.status.Probes++
	var flipped, nowReady, readmit bool
	if err != nil {
		st.status.LastErr = err.Error()
		if st.status.Ready {
			st.status.Ready = false
			st.status.Ejections++
			flipped, nowReady = true, false
		}
	} else {
		st.status.LastErr = ""
		if !st.status.Ready {
			st.status.Ready = true
			if st.everseen {
				st.status.Readmissions++
				readmit = true
			}
			flipped, nowReady = true, true
		}
		st.everseen = true
	}
	p.mu.Unlock()
	if !flipped {
		return
	}
	switch {
	case readmit:
		p.opt.Log.Info("backend readmitted", "backend", b.Name, "http", b.HTTP)
	case nowReady:
		p.opt.Log.Info("backend admitted", "backend", b.Name, "http", b.HTTP)
	default:
		p.opt.Log.Warn("backend ejected", "backend", b.Name, "http", b.HTTP, "err", err)
	}
	if p.opt.OnChange != nil {
		p.opt.OnChange(b, nowReady)
	}
}

// Ready reports whether the named backend currently passes probes. Unknown
// names are never ready.
func (p *Prober) Ready(name string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.state[name]
	return st != nil && st.status.Ready
}

// ReadyCount returns how many backends are currently admitted.
func (p *Prober) ReadyCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, st := range p.state {
		if st.status.Ready {
			n++
		}
	}
	return n
}

// Snapshot returns every backend's status in the configured order.
func (p *Prober) Snapshot() []BackendStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]BackendStatus, 0, len(p.backends))
	for _, b := range p.backends {
		out = append(out, p.state[b.Name].status)
	}
	return out
}
