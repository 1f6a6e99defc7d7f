package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync/atomic"
	"time"

	"itscs/internal/fault"
	"itscs/internal/mcs"
	"itscs/internal/obs"
)

// ErrNoBackend rejects a report whose fleet's owner is ejected (or the
// ring is empty). The transport acks it "err ...", so the participant
// knows the upload was refused — counted, never silently dropped — and
// retries once the owner readmits. Remapping the fleet to a live backend
// instead would split its window state (ring buffers, warm factors, WAL)
// across two engines.
var ErrNoBackend = errors.New("cluster: fleet owner unavailable")

// ForwarderOptions parameterizes a Forwarder.
type ForwarderOptions struct {
	// Client templates the per-backend mcs.Client; each client derives its
	// jitter seed from Client.Seed plus the backend's position so a lost
	// backend's redials desynchronize across the fleet of clients.
	Client mcs.ClientOptions
	// Ready gates traffic per backend name (usually Prober.Ready). nil
	// admits everyone.
	Ready func(name string) bool
	// Log receives unroutable-report events (nil discards).
	Log *slog.Logger
	// Clock supplies the ingest freshness stamps the forwarder applies at
	// the router's door (default Client.Clock, else the wall clock).
	Clock fault.Clock
}

// ForwarderStats snapshots the forwarding data plane. Forwarded +
// Unroutable + NonFinite + InvalidIdentity equals the reports offered to
// Ingest and IngestBatch.
type ForwarderStats struct {
	// Forwarded counts reports accepted into a backend client's queue;
	// Unroutable those refused because the owner was ejected; NonFinite
	// those refused at the door for NaN/Inf coordinates; InvalidIdentity
	// those refused for an empty fleet or negative participant — an empty
	// fleet name would otherwise ring-hash to some arbitrary owner's
	// default fleet, unreachable by any scatter-gather query.
	Forwarded       uint64 `json:"forwarded"`
	Unroutable      uint64 `json:"unroutable"`
	NonFinite       uint64 `json:"non_finite"`
	InvalidIdentity uint64 `json:"invalid_identity"`
	// Backends maps backend name to its transport client's counters.
	Backends map[string]mcs.ClientStats `json:"backends"`
}

// Forwarder is the router's ingest data plane: it implements
// mcs.BatchIngestor, so the router's mcs.Server feeds it each read's
// participant uploads in one call. Each run of one fleet's reports is
// routed through the ring once and handed to the owner's mcs.Client in one
// call; the client buffers, reconnects, and retries. The router's
// "ok" ack therefore means accepted for forwarding (store-and-forward, at
// least once — the backend's duplicate rejection absorbs retry overlap),
// not yet applied on the owner; Flush gives batch callers the stronger
// guarantee.
type Forwarder struct {
	ring    *Ring
	ready   func(string) bool
	log     *slog.Logger
	clock   fault.Clock
	clients map[string]*mcs.Client

	forwarded       atomic.Uint64
	unroutable      atomic.Uint64
	nonFinite       atomic.Uint64
	invalidIdentity atomic.Uint64
}

// NewForwarder builds the data plane over the backend list, populating the
// ring with every backend and dialing one mcs.Client per backend (lazily —
// connections happen on first send).
func NewForwarder(backends []Backend, ring *Ring, opt ForwarderOptions) *Forwarder {
	f := &Forwarder{
		ring:    ring,
		ready:   opt.Ready,
		log:     opt.Log,
		clock:   opt.Clock,
		clients: make(map[string]*mcs.Client, len(backends)),
	}
	if f.ready == nil {
		f.ready = func(string) bool { return true }
	}
	if f.log == nil {
		f.log = obs.Discard()
	}
	if f.clock == nil {
		f.clock = opt.Client.Clock
	}
	if f.clock == nil {
		f.clock = fault.RealClock()
	}
	for i, b := range backends {
		ring.Add(b.Name)
		copt := opt.Client
		copt.Seed = opt.Client.Seed + int64(i)
		f.clients[b.Name] = mcs.NewClient(b.Ingest, copt)
	}
	return f
}

// Ingest routes one report to its fleet's owner: IngestBatch of one.
func (f *Forwarder) Ingest(r mcs.Report) error {
	rs, errs := [1]mcs.Report{r}, [1]error{}
	f.IngestBatch(rs[:], errs[:])
	return errs[0]
}

// IngestBatch routes a batch of reports, setting errs[i] to report i's
// verdict exactly as Ingest of each report in order would. It never
// blocks: each owner's client buffers (drop-oldest under sustained outage,
// counted). The batch is cut into runs of consecutive reports of one
// fleet; a run looks up its owner once and hands its accepted reports to
// the owner's client in one call, so each backend receives them in batch
// order. The clock is read once per call. What rs holds on return is
// unspecified, as mcs.BatchIngestor allows.
func (f *Forwarder) IngestBatch(rs []mcs.Report, errs []error) {
	now := f.clock.Now()
	for start := 0; start < len(rs); {
		end := start + 1
		for end < len(rs) && rs[end].Fleet == rs[start].Fleet {
			end++
		}
		f.forwardRun(rs[start:end], errs[start:end], now)
		start = end
	}
}

// forwardRun checks, stamps and forwards one fleet's run. The owner is
// looked up at the run's first report that passes the checks, where Ingest
// of each report would first consult the ring, and the reports accepted
// are packed to the front of rs for the one hand-off.
func (f *Forwarder) forwardRun(rs []mcs.Report, errs []error, now time.Time) {
	var (
		cl       *mcs.Client
		routeErr error
		kept     int
	)
	for i := range rs {
		if errs[i] = rs[i].CheckFinite(); errs[i] != nil {
			f.nonFinite.Add(1)
			continue
		}
		if errs[i] = rs[i].CheckIdentity(); errs[i] != nil {
			f.invalidIdentity.Add(1)
			continue
		}
		if cl == nil && routeErr == nil {
			cl, routeErr = f.route(rs[i].Fleet)
		}
		if routeErr != nil {
			errs[i] = routeErr
			f.unroutable.Add(1)
			continue
		}
		// Stamp at the door: freshness is measured from the moment the
		// system first accepted the report. StampIngest no-ops on an
		// already-stamped report, so a relay hop never resets the clock.
		mcs.StampIngest(&rs[i], now, mcs.OriginRouter)
		rs[kept] = rs[i]
		kept++
	}
	if kept == 0 {
		return
	}
	if err := cl.SendBatch(rs[:kept]); err != nil {
		for i := range errs {
			if errs[i] == nil {
				errs[i] = err
			}
		}
		f.unroutable.Add(uint64(kept))
		return
	}
	f.forwarded.Add(uint64(kept))
}

// route finds a fleet's owner and its client, or the ErrNoBackend refusal
// when the ring is empty or the owner is ejected.
func (f *Forwarder) route(fleet string) (*mcs.Client, error) {
	owner, ok := f.ring.Owner(fleet)
	if !ok {
		return nil, fmt.Errorf("%w: empty ring", ErrNoBackend)
	}
	if !f.ready(owner) {
		f.log.Debug("report unroutable", "fleet", fleet, "owner", owner)
		return nil, fmt.Errorf("%w: fleet %q owner %s ejected", ErrNoBackend, fleet, owner)
	}
	return f.clients[owner], nil
}

// Owner exposes the ring placement for the query plane and diagnostics.
func (f *Forwarder) Owner(fleet string) (string, bool) {
	return f.ring.Owner(fleet)
}

// Flush drains every backend client's send buffer or fails with the
// context. With an owner down its in-flight reports retry until the
// deadline, so callers bound Flush.
func (f *Forwarder) Flush(ctx context.Context) error {
	for name, cl := range f.clients {
		if err := cl.Flush(ctx); err != nil {
			return fmt.Errorf("cluster: flush %s: %w", name, err)
		}
	}
	return nil
}

// Close shuts every backend client down, abandoning (and counting)
// whatever is still queued. Flush first for delivery guarantees.
func (f *Forwarder) Close() error {
	var err error
	for _, cl := range f.clients {
		if cerr := cl.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Stats snapshots the data plane, with per-backend client counters keyed
// by backend name (iterate sorted for stable output: see SortedBackends).
func (f *Forwarder) Stats() ForwarderStats {
	s := ForwarderStats{
		Forwarded:       f.forwarded.Load(),
		Unroutable:      f.unroutable.Load(),
		NonFinite:       f.nonFinite.Load(),
		InvalidIdentity: f.invalidIdentity.Load(),
		Backends:        make(map[string]mcs.ClientStats, len(f.clients)),
	}
	for name, cl := range f.clients {
		s.Backends[name] = cl.Stats()
	}
	return s
}

// SortedBackends lists the stats' backend names in stable order.
func (s ForwarderStats) SortedBackends() []string {
	names := make([]string, 0, len(s.Backends))
	for name := range s.Backends {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
