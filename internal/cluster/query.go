package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"

	"itscs/internal/metrics"
	"itscs/internal/pipeline"
	"itscs/internal/reputation"
)

// Query is the cluster's read path. Fleet-scoped reads go to the one
// backend owning the fleet; cluster-scoped reads fan out to every backend
// concurrently and merge the answers, so one scrape of the router sees the
// whole cluster.
type Query struct {
	backends []Backend
	byName   map[string]Backend
	ring     *Ring
	ready    func(string) bool
	client   *http.Client
}

// NewQuery builds the read path. ready gates fleet-scoped proxying
// (usually Prober.Ready; nil admits everyone); client nil uses a default
// whose deadlines come from the per-request context.
func NewQuery(backends []Backend, ring *Ring, ready func(string) bool, client *http.Client) *Query {
	if ready == nil {
		ready = func(string) bool { return true }
	}
	if client == nil {
		client = &http.Client{}
	}
	byName := make(map[string]Backend, len(backends))
	for _, b := range backends {
		byName[b.Name] = b
	}
	return &Query{backends: backends, byName: byName, ring: ring, ready: ready, client: client}
}

// ProxyResponse is one backend's verbatim HTTP answer, relayed with its
// status so 204 no-result-yet and 404 unknown-fleet survive the hop.
type ProxyResponse struct {
	Backend     string
	Status      int
	ContentType string
	Body        []byte
}

// Result proxies GET /results/{fleet} to the fleet's owner. It fails with
// ErrNoBackend when the owner is ejected: the state exists only there, so
// no other backend can answer.
func (q *Query) Result(ctx context.Context, fleet string) (*ProxyResponse, error) {
	return q.proxyToOwner(ctx, fleet, "/results/"+fleet)
}

// ReputationFleet proxies GET /reputation/{fleet} to the fleet's owner:
// fleets shard whole, so the owner's ledger is the authoritative (and
// only) trust state for the fleet.
func (q *Query) ReputationFleet(ctx context.Context, fleet string) (*ProxyResponse, error) {
	return q.proxyToOwner(ctx, fleet, "/reputation/"+fleet)
}

// ReputationParticipant proxies GET /reputation/{fleet}/{participant} to
// the fleet's owner.
func (q *Query) ReputationParticipant(ctx context.Context, fleet, participant string) (*ProxyResponse, error) {
	return q.proxyToOwner(ctx, fleet, "/reputation/"+fleet+"/"+participant)
}

// proxyToOwner relays one fleet-scoped GET to the fleet's ring owner,
// failing with ErrNoBackend when the owner is ejected.
func (q *Query) proxyToOwner(ctx context.Context, fleet, path string) (*ProxyResponse, error) {
	owner, ok := q.ring.Owner(fleet)
	if !ok {
		return nil, fmt.Errorf("%w: empty ring", ErrNoBackend)
	}
	if !q.ready(owner) {
		return nil, fmt.Errorf("%w: fleet %q owner %s ejected", ErrNoBackend, fleet, owner)
	}
	return q.proxy(ctx, owner, path)
}

// proxy relays one GET to one backend.
func (q *Query) proxy(ctx context.Context, name, path string) (*ProxyResponse, error) {
	b, ok := q.byName[name]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown backend %q", name)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+b.HTTP+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := q.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: backend %s: %w", name, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, fmt.Errorf("cluster: backend %s: read: %w", name, err)
	}
	return &ProxyResponse{
		Backend:     name,
		Status:      resp.StatusCode,
		ContentType: resp.Header.Get("Content-Type"),
		Body:        body,
	}, nil
}

// FleetList is the merged answer to GET /results across the cluster.
type FleetList struct {
	// Fleets is the union of every reachable backend's fleet list, sorted.
	Fleets []string `json:"fleets"`
	// Errors maps backends that could not answer to the reason; readers
	// see a partial list is partial instead of mistaking it for complete.
	Errors map[string]string `json:"errors,omitempty"`
}

// Fleets fans GET /results out to every ready backend and unions the
// results. Ejected backends are skipped (their fleets are unreachable
// anyway) and noted under Errors.
func (q *Query) Fleets(ctx context.Context) FleetList {
	out := FleetList{Fleets: []string{}}
	seen := make(map[string]bool)
	for _, r := range q.fanout(ctx, "/results", true) {
		if r.err != nil {
			out.setErr(r.backend, r.err.Error())
			continue
		}
		var payload struct {
			Fleets []string `json:"fleets"`
		}
		if err := json.Unmarshal(r.body, &payload); err != nil {
			out.setErr(r.backend, "bad /results payload: "+err.Error())
			continue
		}
		for _, fleet := range payload.Fleets {
			if !seen[fleet] {
				seen[fleet] = true
				out.Fleets = append(out.Fleets, fleet)
			}
		}
	}
	sort.Strings(out.Fleets)
	return out
}

func (fl *FleetList) setErr(backend, msg string) {
	if fl.Errors == nil {
		fl.Errors = make(map[string]string)
	}
	fl.Errors[backend] = msg
}

// BackendMetrics is one backend's engine stats, or the reason they are
// missing.
type BackendMetrics struct {
	Backend string          `json:"backend"`
	Err     string          `json:"err,omitempty"`
	Stats   *pipeline.Stats `json:"stats,omitempty"`
}

// ClusterMetrics is the merged answer to GET /metrics across the cluster:
// each backend's engine stats plus their sum. Counters add; histograms
// merge bucket-wise; per-fleet drop maps union (a fleet lives on one
// backend, so keys never collide).
type ClusterMetrics struct {
	Backends  []BackendMetrics `json:"backends"`
	Aggregate pipeline.Stats   `json:"aggregate"`
}

// Metrics fans GET /metrics?format=json out to every backend — ejected
// ones included, since a recovering backend's stats are exactly what an
// operator wants during an incident — and aggregates what answers.
func (q *Query) Metrics(ctx context.Context) ClusterMetrics {
	var out ClusterMetrics
	for _, r := range q.fanout(ctx, "/metrics?format=json", false) {
		bm := BackendMetrics{Backend: r.backend}
		switch {
		case r.err != nil:
			bm.Err = r.err.Error()
		default:
			var stats pipeline.Stats
			if err := json.Unmarshal(r.body, &stats); err != nil {
				bm.Err = "bad /metrics payload: " + err.Error()
			} else {
				bm.Stats = &stats
				MergeStats(&out.Aggregate, stats)
			}
		}
		out.Backends = append(out.Backends, bm)
	}
	return out
}

// ClusterReputation is the merged answer to GET /reputation across the
// cluster: the union of every backend's fleet ledgers (fleets shard whole,
// so snapshots union without key collisions) plus the summed aggregate
// counters.
type ClusterReputation struct {
	Fleets []reputation.FleetSnapshot `json:"fleets"`
	Stats  reputation.LedgerStats     `json:"stats"`
	// Errors maps backends that could not answer (ejected, unreachable, or
	// running with the ledger disabled) to the reason.
	Errors map[string]string `json:"errors,omitempty"`
}

// Reputation fans GET /reputation out to every ready backend and merges
// the ledgers. The merge is consistent because each fleet's trust state
// lives wholly on its ring owner — no row is ever split or double-counted.
func (q *Query) Reputation(ctx context.Context) ClusterReputation {
	out := ClusterReputation{
		Fleets: []reputation.FleetSnapshot{},
		Stats:  reputation.LedgerStats{States: map[string]int{}},
	}
	for _, r := range q.fanout(ctx, "/reputation", true) {
		if r.err != nil {
			out.setErr(r.backend, r.err.Error())
			continue
		}
		var snap reputation.Snapshot
		if err := json.Unmarshal(r.body, &snap); err != nil {
			out.setErr(r.backend, "bad /reputation payload: "+err.Error())
			continue
		}
		out.Fleets = append(out.Fleets, snap.Fleets...)
		mergeLedgerStats(&out.Stats, snap.Stats)
	}
	sort.Slice(out.Fleets, func(i, j int) bool { return out.Fleets[i].Fleet < out.Fleets[j].Fleet })
	return out
}

func (cr *ClusterReputation) setErr(backend, msg string) {
	if cr.Errors == nil {
		cr.Errors = make(map[string]string)
	}
	cr.Errors[backend] = msg
}

// mergeLedgerStats sums src into dst: scalar counters add, the per-state
// census adds per state, and transition edges merge by (from, to).
func mergeLedgerStats(dst *reputation.LedgerStats, src reputation.LedgerStats) {
	dst.Fleets += src.Fleets
	dst.Folded += src.Folded
	dst.Skipped += src.Skipped
	for state, n := range src.States {
		if dst.States == nil {
			dst.States = make(map[string]int)
		}
		dst.States[state] += n
	}
	for _, tr := range src.Transitions {
		merged := false
		for i := range dst.Transitions {
			if dst.Transitions[i].From == tr.From && dst.Transitions[i].To == tr.To {
				dst.Transitions[i].Count += tr.Count
				merged = true
				break
			}
		}
		if !merged {
			dst.Transitions = append(dst.Transitions, tr)
		}
	}
	sort.Slice(dst.Transitions, func(i, j int) bool {
		if dst.Transitions[i].From != dst.Transitions[j].From {
			return dst.Transitions[i].From < dst.Transitions[j].From
		}
		return dst.Transitions[i].To < dst.Transitions[j].To
	})
}

// BackendTraces is one backend's /trace answer (verbatim JSON), or the
// reason it is missing.
type BackendTraces struct {
	Backend string          `json:"backend"`
	Err     string          `json:"err,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// ClusterTraces is the merged answer to GET /trace/{fleet} across the
// cluster, each backend's contribution attributed. The fleet's ring owner
// holds the live traces, but after a ring move (or with an ID retained only
// pre-move) another backend may still hold the record, so the lookup asks
// everyone rather than trusting placement.
type ClusterTraces struct {
	Fleet    string          `json:"fleet"`
	Backends []BackendTraces `json:"backends"`
}

// TraceFleet fans GET /trace/{fleet} (with the given raw query, e.g.
// "id=74b1…") out to every backend and returns the attributed answers. A
// backend that does not know the fleet (404) or retains no such trace is
// reported under Err rather than failing the merge.
func (q *Query) TraceFleet(ctx context.Context, fleet, rawQuery string) ClusterTraces {
	path := "/trace/" + fleet
	if rawQuery != "" {
		path += "?" + rawQuery
	}
	out := ClusterTraces{Fleet: fleet}
	for _, r := range q.fanout(ctx, path, false) {
		bt := BackendTraces{Backend: r.backend}
		if r.err != nil {
			bt.Err = r.err.Error()
		} else {
			bt.Payload = json.RawMessage(r.body)
		}
		out.Backends = append(out.Backends, bt)
	}
	return out
}

// StatusReport is one backend's /status answer (verbatim JSON), or the
// reason it is missing. (BackendStatus is the prober's health record.)
type StatusReport struct {
	Backend string          `json:"backend"`
	Err     string          `json:"err,omitempty"`
	Status  json.RawMessage `json:"status,omitempty"`
}

// Status fans GET /status out to every backend — ejected ones included,
// since an unhealthy backend's self-description is exactly what an operator
// wants during an incident — and returns the attributed answers.
func (q *Query) Status(ctx context.Context) []StatusReport {
	var out []StatusReport
	for _, r := range q.fanout(ctx, "/status", false) {
		bs := StatusReport{Backend: r.backend}
		if r.err != nil {
			bs.Err = r.err.Error()
		} else {
			bs.Status = json.RawMessage(r.body)
		}
		out = append(out, bs)
	}
	return out
}

type fanResult struct {
	backend string
	body    []byte
	err     error
}

// fanout GETs path on the backends concurrently, in configured order.
// onlyReady skips ejected backends, reporting them as errors.
func (q *Query) fanout(ctx context.Context, path string, onlyReady bool) []fanResult {
	results := make([]fanResult, len(q.backends))
	var wg sync.WaitGroup
	for i, b := range q.backends {
		results[i].backend = b.Name
		if onlyReady && !q.ready(b.Name) {
			results[i].err = ErrNoBackend
			continue
		}
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			resp, err := q.proxy(ctx, name, path)
			if err != nil {
				results[i].err = err
				return
			}
			if resp.Status != http.StatusOK {
				results[i].err = fmt.Errorf("cluster: backend %s: status %d", name, resp.Status)
				return
			}
			results[i].body = resp.Body
		}(i, b.Name)
	}
	wg.Wait()
	return results
}

// MergeStats folds src into dst: counters and gauges sum, histograms merge
// bucket-wise with the mean recomputed, and the per-fleet drop breakdown
// unions.
func MergeStats(dst *pipeline.Stats, src pipeline.Stats) {
	dst.Ingested += src.Ingested
	dst.Replayed += src.Replayed
	dst.Rejected += src.Rejected
	dst.Late += src.Late
	dst.Duplicates += src.Duplicates
	dst.NonFinite += src.NonFinite
	dst.ReportsStamped += src.ReportsStamped
	dst.ReportsUnstamped += src.ReportsUnstamped
	dst.AdmittedClean += src.AdmittedClean
	dst.TaggedQuarantined += src.TaggedQuarantined
	dst.TaggedProbation += src.TaggedProbation
	dst.WindowsClosed += src.WindowsClosed
	dst.WindowsEmpty += src.WindowsEmpty
	dst.WindowsSkipped += src.WindowsSkipped
	dst.WindowsDropped += src.WindowsDropped
	dst.WindowsProcessed += src.WindowsProcessed
	dst.WindowsFailed += src.WindowsFailed
	dst.WarmStarts += src.WarmStarts
	dst.ColdStarts += src.ColdStarts
	dst.SubscriberDrops += src.SubscriberDrops
	dst.QueueDepth += src.QueueDepth
	dst.QueueCapacity += src.QueueCapacity
	dst.Fleets += src.Fleets
	for fleet, n := range src.WindowsDroppedByFleet {
		if dst.WindowsDroppedByFleet == nil {
			dst.WindowsDroppedByFleet = make(map[string]uint64)
		}
		dst.WindowsDroppedByFleet[fleet] += n
	}
	for phase, h := range src.PhaseLatency {
		if dst.PhaseLatency == nil {
			dst.PhaseLatency = make(map[string]pipeline.HistogramSnapshot)
		}
		dst.PhaseLatency[phase] = metrics.MergeHistogram(dst.PhaseLatency[phase], h)
	}
	dst.AgeAtClose = metrics.MergeHistogram(dst.AgeAtClose, src.AgeAtClose)
	dst.IngestToResult = metrics.MergeHistogram(dst.IngestToResult, src.IngestToResult)
	// Fleets shard whole, so per-fleet freshness unions without collisions
	// (after a ring move both owners may briefly report the fleet; the
	// merge keeps whichever answered last, a transient either way).
	for fleet, ff := range src.Freshness {
		if dst.Freshness == nil {
			dst.Freshness = make(map[string]pipeline.FleetFreshness)
		}
		dst.Freshness[fleet] = ff
	}
}
