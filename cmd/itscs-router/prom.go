package main

import (
	"time"

	"itscs/internal/metrics"
	"itscs/internal/obs"
	"itscs/internal/reputation"
)

// renderProm flattens the router's metrics payload into Prometheus text
// exposition format 0.0.4. Router-local series carry the itscs_router_
// prefix; the cluster-wide aggregates of the backends' engine stats carry
// itscs_cluster_, so one scrape of the router graphs the whole deployment.
// Per-backend series are labeled backend="<ingest addr>" and emitted in
// stable (configured) order.
func renderProm(p metricsPayload, uptime time.Duration, rt *obs.Runtime) []byte {
	b := obs.NewProm()

	b.Gauge("itscs_router_build_info",
		"Build identity of the running router; the value is always 1.",
		1, obs.BuildInfoLabels()...)
	b.Gauge("itscs_router_uptime_seconds", "Seconds since the router started.", uptime.Seconds())

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

	// Aggregated cluster engine stats (sum over backends that answered the
	// metrics fan-out this scrape).
	answered := 0
	for _, bm := range p.Cluster.Backends {
		if bm.Err == "" {
			answered++
		}
	}
	b.Gauge("itscs_cluster_backends_scraped", "Backends whose engine stats this scrape aggregates.", float64(answered))
	agg := p.Cluster.Aggregate
	b.Counter("itscs_cluster_reports_ingested_total", "Reports accepted across all backend engines.", float64(agg.Ingested))
	b.Counter("itscs_cluster_reports_replayed_total", "Accepted reports that arrived via WAL recovery across the cluster.", float64(agg.Replayed))
	b.Counter("itscs_cluster_reports_rejected_total", "Reports refused at ingest across the cluster.", float64(agg.Rejected))
	b.Counter("itscs_cluster_reports_late_total", "Rejected reports below their fleet's retention horizon.", float64(agg.Late))
	b.Counter("itscs_cluster_reports_duplicate_total", "Rejected reports targeting an already-filled cell.", float64(agg.Duplicates))
	b.Counter("itscs_cluster_reports_non_finite_total", "Rejected reports carrying NaN or infinite values.", float64(agg.NonFinite))
	b.Counter("itscs_cluster_reports_stamped_total", "Ingested reports carrying an ingest freshness stamp, summed across backends.", float64(agg.ReportsStamped))
	b.Counter("itscs_cluster_reports_unstamped_total", "Ingested reports without a freshness stamp, summed across backends.", float64(agg.ReportsUnstamped))
	// Admission-gate breakdown: the three sum to ingested — tagged reports
	// are admitted, never dropped.
	b.Counter("itscs_cluster_reports_admitted_clean_total", "Ingested reports from participants in good standing across the cluster.", float64(agg.AdmittedClean))
	b.Counter("itscs_cluster_reports_tagged_quarantined_total", "Ingested reports tagged as coming from quarantined participants.", float64(agg.TaggedQuarantined))
	b.Counter("itscs_cluster_reports_tagged_probation_total", "Ingested reports tagged as coming from participants on probation.", float64(agg.TaggedProbation))
	b.Counter("itscs_cluster_windows_closed_total", "Windows cut from the streams across the cluster.", float64(agg.WindowsClosed))
	b.Counter("itscs_cluster_windows_empty_total", "Closed windows discarded for holding no observations.", float64(agg.WindowsEmpty))
	b.Counter("itscs_cluster_windows_skipped_total", "Windows jumped over to catch up after a slot gap.", float64(agg.WindowsSkipped))
	b.Counter("itscs_cluster_windows_dropped_total", "Windows evicted from full dispatch queues (drop-oldest).", float64(agg.WindowsDropped))
	b.Counter("itscs_cluster_windows_processed_total", "Windows that ran the detection loop to completion.", float64(agg.WindowsProcessed))
	b.Counter("itscs_cluster_windows_failed_total", "Windows whose detection loop returned an error.", float64(agg.WindowsFailed))
	b.Counter("itscs_cluster_warm_starts_total", "Processed windows that reused the previous window's factorization.", float64(agg.WarmStarts))
	b.Counter("itscs_cluster_cold_starts_total", "Processed windows that started CORRECT from scratch.", float64(agg.ColdStarts))
	b.Gauge("itscs_cluster_queue_depth", "Windows waiting in dispatch queues across the cluster.", float64(agg.QueueDepth))
	b.Gauge("itscs_cluster_fleets", "Fleet shards materialized across the cluster.", float64(agg.Fleets))
	for _, phase := range obs.SortedKeys(agg.PhaseLatency) {
		b.Histogram("itscs_cluster_phase_latency_seconds",
			"Wall-clock latency by pipeline phase, summed across backends.",
			agg.PhaseLatency[phase], obs.Label{Name: "phase", Value: phase})
	}
	// Cluster-wide freshness: the backends' histograms merge bucket-wise
	// (fleets shard whole, so no observation is double-counted).
	b.HistogramBounds("itscs_cluster_freshness_age_at_close_seconds",
		"Report age at window close, summed across backends.",
		metrics.AgeBuckets, agg.AgeAtClose)
	b.HistogramBounds("itscs_cluster_freshness_ingest_to_result_seconds",
		"Ingest-to-result latency, summed across backends.",
		metrics.AgeBuckets, agg.IngestToResult)

	// Merged reputation ledgers (fleets shard whole, so the union over
	// backends double-counts nothing). Every state is emitted even at zero
	// so dashboards see the full census from the first scrape.
	rep := p.Reputation.Stats
	b.Gauge("itscs_cluster_reputation_fleets", "Fleets with trust state across the cluster.", float64(rep.Fleets))
	for _, state := range reputation.StateNames() {
		b.Gauge("itscs_cluster_reputation_participants", "Participants by trust state across the cluster.",
			float64(rep.States[state]), obs.Label{Name: "state", Value: state})
	}
	b.Counter("itscs_cluster_reputation_windows_folded_total", "Window results folded into trust ledgers across the cluster.", float64(rep.Folded))
	b.Counter("itscs_cluster_reputation_folds_skipped_total", "Window folds skipped as already applied (replay overlap) across the cluster.", float64(rep.Skipped))
	for _, tr := range rep.Transitions {
		b.Counter("itscs_cluster_reputation_transitions_total", "Trust state transitions across the cluster.",
			float64(tr.Count), obs.Label{Name: "from", Value: tr.From}, obs.Label{Name: "to", Value: tr.To})
	}
	rt.Emit(b, "itscs_router_")
	return b.Bytes()
}
