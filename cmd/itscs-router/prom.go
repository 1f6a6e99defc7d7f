package main

import (
	"itscs/internal/node"
	"itscs/internal/obs"
)

// renderProm flattens the router's metrics payload into Prometheus text
// exposition format 0.0.4. Router-local series carry the itscs_router_
// prefix; the cluster view carries itscs_cluster_: the prober's health
// series, and the node's engine and ledger series summed over the
// backends, rendered by the node's own emitters, so one scrape of the
// router graphs the whole deployment. Per-backend series are labeled
// backend="<ingest addr>" and emitted in stable (configured) order.
func renderProm(p metricsPayload, rt *obs.Runtime) []byte {
	b := obs.NewProm()

	// Data plane.
	f := p.Forwarder
	b.Counter("itscs_router_reports_forwarded_total", "Reports accepted into a backend client's send buffer.", float64(f.Forwarded))
	b.Counter("itscs_router_reports_unroutable_total", "Reports refused because the fleet's owner was ejected.", float64(f.Unroutable))
	b.Counter("itscs_router_reports_non_finite_total", "Reports refused at the router for NaN or infinite values.", float64(f.NonFinite))
	b.Counter("itscs_router_reports_invalid_identity_total", "Reports refused at the router for an empty fleet or negative participant.", float64(f.InvalidIdentity))

	names := f.SortedBackends()
	emitPerBackend := func(name, help string, value func(string) float64, counter bool) {
		for _, backend := range names {
			label := obs.Label{Name: "backend", Value: backend}
			if counter {
				b.Counter(name, help, value(backend), label)
			} else {
				b.Gauge(name, help, value(backend), label)
			}
		}
	}
	emitPerBackend("itscs_router_client_enqueued_total", "Reports handed to this backend's client.",
		func(n string) float64 { return float64(f.Backends[n].Enqueued) }, true)
	emitPerBackend("itscs_router_client_dropped_total", "Reports evicted from this backend's full send buffer or abandoned at close.",
		func(n string) float64 { return float64(f.Backends[n].Dropped) }, true)
	emitPerBackend("itscs_router_client_sent_total", "Wire writes to this backend, retries included.",
		func(n string) float64 { return float64(f.Backends[n].Sent) }, true)
	emitPerBackend("itscs_router_client_acked_total", "Reports this backend acknowledged ok.",
		func(n string) float64 { return float64(f.Backends[n].Acked) }, true)
	emitPerBackend("itscs_router_client_rejected_total", "Reports this backend refused (err ack).",
		func(n string) float64 { return float64(f.Backends[n].Rejected) }, true)
	emitPerBackend("itscs_router_client_retries_total", "Re-sends after a transport failure mid-report.",
		func(n string) float64 { return float64(f.Backends[n].Retries) }, true)
	emitPerBackend("itscs_router_client_dials_total", "Connection attempts to this backend.",
		func(n string) float64 { return float64(f.Backends[n].Dials) }, true)
	emitPerBackend("itscs_router_client_dial_failures_total", "Failed connection attempts to this backend.",
		func(n string) float64 { return float64(f.Backends[n].DialFailures) }, true)
	emitPerBackend("itscs_router_client_reconnects_total", "Established connections to this backend torn down and replaced.",
		func(n string) float64 { return float64(f.Backends[n].Reconnects) }, true)
	emitPerBackend("itscs_router_client_queue_depth", "Reports buffered for this backend right now.",
		func(n string) float64 { return float64(f.Backends[n].QueueDepth) }, false)
	emitPerBackend("itscs_router_client_queue_capacity", "This backend's send buffer capacity.",
		func(n string) float64 { return float64(f.Backends[n].QueueCapacity) }, false)

	// Health view.
	ready := 0
	for _, st := range p.Backends {
		if st.Ready {
			ready++
		}
	}
	b.Gauge("itscs_cluster_backends", "Backends configured on the placement ring.", float64(len(p.Backends)))
	b.Gauge("itscs_cluster_backends_ready", "Backends currently admitted by the prober.", float64(ready))
	for _, st := range p.Backends {
		label := obs.Label{Name: "backend", Value: st.Backend.Name}
		up := 0.0
		if st.Ready {
			up = 1
		}
		b.Gauge("itscs_cluster_backend_ready", "Whether this backend is admitted (1) or ejected (0).", up, label)
	}
	for _, st := range p.Backends {
		b.Counter("itscs_cluster_backend_probes_total", "Readiness probes sent to this backend.",
			float64(st.Probes), obs.Label{Name: "backend", Value: st.Backend.Name})
	}
	for _, st := range p.Backends {
		b.Counter("itscs_cluster_backend_ejections_total", "Times this backend was ejected from rotation.",
			float64(st.Ejections), obs.Label{Name: "backend", Value: st.Backend.Name})
	}
	for _, st := range p.Backends {
		b.Counter("itscs_cluster_backend_readmissions_total", "Times this backend was readmitted after an ejection.",
			float64(st.Readmissions), obs.Label{Name: "backend", Value: st.Backend.Name})
	}

	// The backends' engine stats and trust ledgers, summed over those that
	// answered this scrape, under the node's own series names.
	answered := 0
	for _, bm := range p.Cluster.Backends {
		if bm.Err == "" {
			answered++
		}
	}
	b.Gauge("itscs_cluster_backends_scraped", "Backends whose engine stats this scrape aggregates.", float64(answered))
	node.EmitStats(b, "itscs_cluster_", p.Cluster.Aggregate)
	node.EmitLedgerStats(b, "itscs_cluster_", p.Reputation.Stats)
	rt.Emit(b, "itscs_router_")
	return b.Bytes()
}
