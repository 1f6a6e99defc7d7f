package node

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"itscs/internal/obs"
	"itscs/internal/pipeline"
	"itscs/internal/reputation"
	"itscs/internal/wal"
)

// Metrics is the /metrics JSON payload: the engine stats (flat), the door's
// identity refusals, and the WAL, checkpointer, recovery and ledger
// sections when the node has them.
type Metrics struct {
	pipeline.Stats
	InvalidIdentity uint64                  `json:"reports_invalid_identity"`
	WAL             *wal.Stats              `json:"wal,omitempty"`
	Checkpoints     *CheckpointStats        `json:"checkpoints,omitempty"`
	Recovery        *Recovery               `json:"recovery,omitempty"`
	Reputation      *reputation.LedgerStats `json:"reputation,omitempty"`
}

// Handler returns the node's HTTP surface:
//
//	GET /healthz         liveness probe (JSON)
//	GET /readyz          503 while startup recovery runs, 200 once ingest
//	                     accepts reports
//	GET /metrics         Prometheus text exposition; JSON with
//	                     Accept: application/json or ?format=json
//	GET /status          operational overview (JSON)
//	GET /results         fleets with at least one report, sorted
//	GET /results/{fleet} newest completed window result (204 before the
//	                     first window completes, 404 for an unknown fleet)
//	GET /trace/{fleet}   recent window spans and report traces;
//	                     ?id={trace-id} looks one trace up
//	GET /reputation[/{fleet}[/{participant}]]  the trust ledger
func (n *Node) Handler() http.Handler { return n.handler }

func (n *Node) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", obs.Healthz(n.runtime))
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness (/healthz) says "the process runs"; readiness says "the
		// ingest accepts reports". During startup recovery the node is
		// alive but must not receive traffic — the cluster router's prober
		// keys off exactly this distinction.
		if !n.ready.Load() {
			obs.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "recovering"})
			return
		}
		obs.WriteJSON(w, http.StatusOK, map[string]any{
			"status":   "ready",
			"uptime_s": n.runtime.Uptime().Seconds(),
		})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		payload := n.metrics()
		obs.WriteMetrics(w, r, payload, func() []byte { return RenderProm(payload, n.runtime) })
	})
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		obs.WriteJSON(w, http.StatusOK, n.status())
	})
	mux.HandleFunc("GET /results", func(w http.ResponseWriter, r *http.Request) {
		obs.WriteJSON(w, http.StatusOK, map[string]any{"fleets": n.engine.Fleets()})
	})
	mux.HandleFunc("GET /results/{fleet}", func(w http.ResponseWriter, r *http.Request) {
		res, err := n.engine.Latest(r.PathValue("fleet"))
		switch {
		case errors.Is(err, pipeline.ErrNoResult):
			// The fleet exists but no window has completed: not an error,
			// just nothing yet. 204 keeps "200 means a result" true.
			w.WriteHeader(http.StatusNoContent)
		case err != nil:
			obs.WriteJSON(w, http.StatusNotFound, map[string]any{"error": err.Error()})
		default:
			obs.WriteJSON(w, http.StatusOK, res)
		}
	})
	mux.HandleFunc("GET /trace/{fleet}", func(w http.ResponseWriter, r *http.Request) {
		fleet := r.PathValue("fleet")
		if idStr := r.URL.Query().Get("id"); idStr != "" {
			// Trace-ID lookup: one stamped report's end-to-end stage record.
			id, err := obs.ParseTraceID(idStr)
			if err != nil {
				obs.WriteJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
				return
			}
			tr, ok := n.engine.FindTrace(fleet, id)
			if !ok {
				obs.WriteJSON(w, http.StatusNotFound, map[string]any{
					"error": fmt.Sprintf("no retained trace %s for fleet %q", idStr, fleet),
				})
				return
			}
			obs.WriteJSON(w, http.StatusOK, map[string]any{"fleet": fleet, "traces": []obs.Trace{tr}})
			return
		}
		spans, err := n.engine.Trace(fleet)
		if err != nil {
			obs.WriteJSON(w, http.StatusNotFound, map[string]any{"error": err.Error()})
			return
		}
		traces, _ := n.engine.Traces(fleet)
		obs.WriteJSON(w, http.StatusOK, map[string]any{"fleet": fleet, "spans": spans, "traces": traces})
	})
	mux.HandleFunc("GET /reputation", n.withLedger(func(w http.ResponseWriter, r *http.Request) {
		obs.WriteJSON(w, http.StatusOK, n.ledger.Snapshot())
	}))
	mux.HandleFunc("GET /reputation/{fleet}", n.withLedger(func(w http.ResponseWriter, r *http.Request) {
		fleet := r.PathValue("fleet")
		fs, ok := n.ledger.Fleet(fleet)
		if !ok {
			obs.WriteJSON(w, http.StatusNotFound, map[string]any{"error": "unknown fleet: " + fleet})
			return
		}
		obs.WriteJSON(w, http.StatusOK, fs)
	}))
	mux.HandleFunc("GET /reputation/{fleet}/{participant}", n.withLedger(func(w http.ResponseWriter, r *http.Request) {
		fleet := r.PathValue("fleet")
		part, err := strconv.Atoi(r.PathValue("participant"))
		if err != nil || part < 0 {
			obs.WriteJSON(w, http.StatusBadRequest, map[string]any{"error": "participant must be a non-negative integer"})
			return
		}
		ps, ok := n.ledger.Participant(fleet, part)
		if !ok {
			obs.WriteJSON(w, http.StatusNotFound, map[string]any{
				"error": fmt.Sprintf("no trust row for participant %d of fleet %q", part, fleet),
			})
			return
		}
		obs.WriteJSON(w, http.StatusOK, ps)
	}))
	return mux
}

// withLedger answers 404 on every /reputation route of a node running
// without a trust ledger.
func (n *Node) withLedger(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if n.ledger == nil {
			obs.WriteJSON(w, http.StatusNotFound, map[string]any{"error": "reputation ledger disabled"})
			return
		}
		h(w, r)
	}
}

// metrics assembles the /metrics payload.
func (n *Node) metrics() Metrics {
	p := Metrics{
		Stats:           n.engine.Stats(),
		InvalidIdentity: n.invalidIdentity.Load(),
		Recovery:        n.recovery.Load(),
	}
	if n.dur != nil {
		ws := n.dur.log.Stats()
		p.WAL = &ws
		cs := n.dur.checkpointStats()
		p.Checkpoints = &cs
	}
	if n.ledger != nil {
		rs := n.ledger.Stats()
		p.Reputation = &rs
	}
	return p
}

// status assembles the /status operational overview: identity and uptime,
// engine and freshness summary (quantiles, per-fleet lag), the reputation
// gate census, and the durability recency signals.
func (n *Node) status() map[string]any {
	st := n.engine.Stats()
	freshness, _ := FreshnessStatus(st)
	payload := map[string]any{
		"status":    "ok",
		"ready":     n.ready.Load(),
		"uptime_s":  n.runtime.Uptime().Seconds(),
		"build":     obs.BuildInfo(n.runtime.Uptime()),
		"engine":    EngineStatus(st),
		"freshness": freshness,
	}
	if n.ledger != nil {
		rs := n.ledger.Stats()
		payload["reputation"] = map[string]any{
			"fleets":         rs.Fleets,
			"states":         rs.States,
			"windows_folded": rs.Folded,
		}
	}
	if d := n.dur; d != nil {
		ws := d.log.Stats()
		payload["durability"] = map[string]any{
			"data_dir":           d.dir,
			"fsync_policy":       d.sync.String(),
			"wal_last_append_us": ws.LastAppendUnixMicro,
			"wal_last_fsync_us":  ws.LastFsyncUnixMicro,
			"checkpoints":        d.checkpointStats(),
		}
		if rec := n.recovery.Load(); rec != nil {
			payload["recovery"] = rec
		}
	}
	return payload
}

// EngineStatus builds the /status engine object both daemons serve from
// st: the router passes the stats summed over its backends.
func EngineStatus(st pipeline.Stats) map[string]any {
	return map[string]any{
		"ingested":          st.Ingested,
		"rejected":          st.Rejected,
		"reports_stamped":   st.ReportsStamped,
		"reports_unstamped": st.ReportsUnstamped,
		"windows_closed":    st.WindowsClosed,
		"windows_processed": st.WindowsProcessed,
		"queue_depth":       st.QueueDepth,
		"queue_capacity":    st.QueueCapacity,
		"fleets":            st.Fleets,
	}
}

// FreshnessStatus builds the /status freshness object both daemons serve
// from st: the engine-wide quantiles, and under by_fleet each fleet's
// watermark, window lag and quantiles. byFleet is that same by_fleet map,
// returned so the router can attribute each fleet to its owner.
func FreshnessStatus(st pipeline.Stats) (freshness map[string]any, byFleet map[string]map[string]any) {
	byFleet = make(map[string]map[string]any, len(st.Freshness))
	for name, ff := range st.Freshness {
		byFleet[name] = map[string]any{
			"watermark_slot":   ff.WatermarkSlot,
			"window_lag":       ff.NextSeq - 1 - ff.LatestSeq,
			"age_at_close":     pipeline.SummarizeFreshness(ff.AgeAtClose),
			"ingest_to_result": pipeline.SummarizeFreshness(ff.IngestToResult),
		}
	}
	return map[string]any{
		"age_at_close":     pipeline.SummarizeFreshness(st.AgeAtClose),
		"ingest_to_result": pipeline.SummarizeFreshness(st.IngestToResult),
		"by_fleet":         byFleet,
	}, byFleet
}
