package node

import (
	"itscs/internal/metrics"
	"itscs/internal/obs"
	"itscs/internal/pipeline"
	"itscs/internal/reputation"
)

// RenderProm flattens a node's whole metrics payload into Prometheus
// text exposition format 0.0.4: the shared engine and ledger sections
// under itscs_, then what only a node has — door refusals, subscriber
// drops, queue capacity, per-fleet series, and the WAL, checkpointer and
// recovery state — then the runtime self-metrics. Maps are emitted in
// sorted key order so consecutive scrapes are byte-stable for identical
// state.
func RenderProm(p Metrics, rt *obs.Runtime) []byte {
	b := obs.NewProm()
	EmitStats(b, "itscs_", p.Stats)

	b.Counter("itscs_reports_invalid_identity_total", "Reports refused at the ingest door for an empty fleet or negative participant.", float64(p.InvalidIdentity))
	b.Counter("itscs_subscriber_drops_total", "Results a slow subscriber failed to receive.", float64(p.SubscriberDrops))
	b.Gauge("itscs_queue_capacity", "Dispatch queue capacity.", float64(p.QueueCapacity))
	for _, fleet := range obs.SortedKeys(p.WindowsDroppedByFleet) {
		b.Counter("itscs_fleet_windows_dropped_total",
			"Windows dropped under backpressure, by fleet.",
			float64(p.WindowsDroppedByFleet[fleet]), obs.Label{Name: "fleet", Value: fleet})
	}
	for _, fleet := range obs.SortedKeys(p.Freshness) {
		ff := p.Freshness[fleet]
		lbl := obs.Label{Name: "fleet", Value: fleet}
		b.HistogramBounds("itscs_fleet_freshness_age_at_close_seconds",
			"Report age at window close, by fleet.", metrics.AgeBuckets, ff.AgeAtClose, lbl)
		b.HistogramBounds("itscs_fleet_freshness_ingest_to_result_seconds",
			"Ingest-to-result latency, by fleet.", metrics.AgeBuckets, ff.IngestToResult, lbl)
		b.Gauge("itscs_fleet_watermark_slot",
			"Highest slot the fleet's stream has reached.", float64(ff.WatermarkSlot), lbl)
		b.Gauge("itscs_fleet_window_lag",
			"Windows closed but not yet completed for the fleet.",
			float64(ff.NextSeq-1-ff.LatestSeq), lbl)
	}

	if p.WAL != nil {
		w := p.WAL
		b.Counter("itscs_wal_records_total", "Records appended to the write-ahead log.", float64(w.Records))
		b.Counter("itscs_wal_bytes_appended_total", "Frame bytes appended to the write-ahead log.", float64(w.Bytes))
		b.Counter("itscs_wal_batches_total", "Group commits to the write-ahead log.", float64(w.Batches))
		b.Counter("itscs_wal_fsyncs_total", "File syncs issued by the write-ahead log.", float64(w.Fsyncs))
		b.Histogram("itscs_wal_fsync_latency_seconds", "Write-ahead log fsync latency.", w.FsyncLatency)
		b.Gauge("itscs_wal_segments", "Live write-ahead log segments.", float64(w.Segments))
		b.Counter("itscs_wal_rotations_total", "Log segments opened after the first.", float64(w.Rotations))
		b.Counter("itscs_wal_compacted_segments_total", "Log segments removed by compaction.", float64(w.Compacted))
		b.Counter("itscs_wal_corrupt_segments_total", "Segments whose damaged remainder recovery or replay skipped.", float64(w.CorruptSegments))
		b.Counter("itscs_wal_truncated_bytes_total", "Torn-tail bytes cut off the final segment at open.", float64(w.TruncatedBytes))
		b.Counter("itscs_wal_replayed_records_total", "Records replayed from the log at startup.", float64(w.Replayed))
		b.Counter("itscs_wal_replay_skipped_records_total", "Records lost inside damaged regions during replay.", float64(w.ReplaySkipped))
		// Recency pair: how stale the durable tail could be. 0 until the
		// first append (or fsync) after start.
		b.Gauge("itscs_wal_last_append_timestamp_seconds",
			"Unix time of the newest record appended to the write-ahead log.",
			float64(w.LastAppendUnixMicro)/1e6)
		b.Gauge("itscs_wal_last_fsync_timestamp_seconds",
			"Unix time of the write-ahead log's newest completed fsync.",
			float64(w.LastFsyncUnixMicro)/1e6)
	}
	if p.Checkpoints != nil {
		b.Counter("itscs_checkpoints_written_total", "Shard checkpoints persisted.", float64(p.Checkpoints.Written))
		b.Counter("itscs_checkpoint_errors_total", "Checkpoint attempts that failed.", float64(p.Checkpoints.Errors))
		b.Gauge("itscs_checkpoint_last_timestamp_seconds",
			"Unix time the newest checkpoint finished (0 before the first).",
			float64(p.Checkpoints.LastUnixMicro)/1e6)
	}
	if p.Reputation != nil {
		EmitLedgerStats(b, "itscs_", *p.Reputation)
	}
	if p.Recovery != nil {
		r := p.Recovery
		b.Gauge("itscs_recovery_checkpoint_index", "Log index of the checkpoint restored at startup.", float64(r.CheckpointIndex))
		b.Gauge("itscs_recovery_checkpoints_skipped", "Corrupt checkpoints skipped while picking one to restore.", float64(r.CheckpointsSkipped))
		b.Gauge("itscs_recovery_fleets", "Fleet shards restored from the checkpoint.", float64(r.Fleets))
		b.Gauge("itscs_recovery_log_records", "Records the log held when recovery began.", float64(r.LogRecords))
		b.Gauge("itscs_recovery_replayed_records", "Records replayed through the engine at startup.", float64(r.ReplayedRecords))
		b.Gauge("itscs_recovery_replay_rejected", "Replayed records the engine refused.", float64(r.ReplayRejected))
		b.Gauge("itscs_recovery_duration_seconds", "Wall-clock time recovery took.", r.DurationS)
	}
	rt.Emit(b, "itscs_")
	return b.Bytes()
}

// EmitStats appends the engine series both daemons export, each name
// prefixed: itscs_ on a node, itscs_cluster_ on the router, where st is the
// sum over its backends.
func EmitStats(b *obs.Prom, prefix string, st pipeline.Stats) {
	b.Counter(prefix+"reports_ingested_total", "Reports accepted into the engine.", float64(st.Ingested))
	b.Counter(prefix+"reports_replayed_total", "Accepted reports that arrived via WAL recovery, not the live transport.", float64(st.Replayed))
	b.Counter(prefix+"reports_rejected_total", "Reports refused at ingest.", float64(st.Rejected))
	b.Counter(prefix+"reports_late_total", "Rejected reports below their fleet's retention horizon.", float64(st.Late))
	b.Counter(prefix+"reports_duplicate_total", "Rejected reports targeting an already-filled cell.", float64(st.Duplicates))
	b.Counter(prefix+"reports_non_finite_total", "Rejected reports carrying NaN or infinite values.", float64(st.NonFinite))
	// Freshness partition: stamped + unstamped == ingested, always — replay
	// must never re-stamp, so the split survives crash/recovery intact.
	b.Counter(prefix+"reports_stamped_total", "Ingested reports carrying an ingest freshness stamp.", float64(st.ReportsStamped))
	b.Counter(prefix+"reports_unstamped_total", "Ingested reports without a freshness stamp (direct engine feeds).", float64(st.ReportsUnstamped))

	// Admission-gate counters. The gate tags, it never drops:
	// admitted_clean + tagged_quarantined + tagged_probation == ingested.
	b.Counter(prefix+"reports_admitted_clean_total", "Ingested reports from participants in good standing.", float64(st.AdmittedClean))
	b.Counter(prefix+"reports_tagged_quarantined_total", "Ingested reports tagged as coming from quarantined participants.", float64(st.TaggedQuarantined))
	b.Counter(prefix+"reports_tagged_probation_total", "Ingested reports tagged as coming from probation participants.", float64(st.TaggedProbation))

	b.Counter(prefix+"windows_closed_total", "Windows cut from the streams.", float64(st.WindowsClosed))
	b.Counter(prefix+"windows_empty_total", "Closed windows discarded for holding no observations.", float64(st.WindowsEmpty))
	b.Counter(prefix+"windows_skipped_total", "Windows jumped over to catch up after a slot gap.", float64(st.WindowsSkipped))
	b.Counter(prefix+"windows_dropped_total", "Windows evicted from the full dispatch queue (drop-oldest).", float64(st.WindowsDropped))
	b.Counter(prefix+"windows_processed_total", "Windows that ran the detection loop to completion.", float64(st.WindowsProcessed))
	b.Counter(prefix+"windows_failed_total", "Windows whose detection loop returned an error.", float64(st.WindowsFailed))
	b.Counter(prefix+"warm_starts_total", "Processed windows that reused the previous window's factorization.", float64(st.WarmStarts))
	b.Counter(prefix+"cold_starts_total", "Processed windows that started CORRECT from scratch.", float64(st.ColdStarts))
	b.Gauge(prefix+"queue_depth", "Windows waiting in the dispatch queue right now.", float64(st.QueueDepth))
	b.Gauge(prefix+"fleets", "Fleet shards currently materialized.", float64(st.Fleets))

	// Per-phase latency histograms share one metric name with a phase label.
	for _, phase := range obs.SortedKeys(st.PhaseLatency) {
		b.Histogram(prefix+"phase_latency_seconds",
			"Wall-clock latency by pipeline phase: detect, correct, check, run (whole loop), wait (queue residence).",
			st.PhaseLatency[phase], obs.Label{Name: "phase", Value: phase})
	}
	// Both freshness histograms run on the wide AgeBuckets scheme (50 ms –
	// 4 h): report age legitimately spans most of a window length, and
	// recovery replay surfaces hours-old stamps.
	b.HistogramBounds(prefix+"freshness_age_at_close_seconds",
		"Age of each stamped report when its window closed (window close time minus ingest stamp).",
		metrics.AgeBuckets, st.AgeAtClose)
	b.HistogramBounds(prefix+"freshness_ingest_to_result_seconds",
		"Ingest-to-result latency of each stamped report (detection completion minus ingest stamp).",
		metrics.AgeBuckets, st.IngestToResult)
}

// EmitLedgerStats appends the trust-ledger series both daemons export,
// each name prefixed as in EmitStats.
func EmitLedgerStats(b *obs.Prom, prefix string, rep reputation.LedgerStats) {
	b.Gauge(prefix+"reputation_fleets", "Fleets with at least one trust row.", float64(rep.Fleets))
	// Every state appears even at zero, so a scrape always sees the full
	// census and rate() never starts from a missing series.
	for _, state := range reputation.StateNames() {
		b.Gauge(prefix+"reputation_participants",
			"Participants with folded evidence, by quarantine state.",
			float64(rep.States[state]), obs.Label{Name: "state", Value: state})
	}
	b.Counter(prefix+"reputation_windows_folded_total", "Completed windows folded into the trust ledger.", float64(rep.Folded))
	b.Counter(prefix+"reputation_folds_skipped_total", "Window folds skipped as duplicates behind a fleet's sequence frontier.", float64(rep.Skipped))
	for _, tr := range rep.Transitions {
		b.Counter(prefix+"reputation_transitions_total",
			"Quarantine state-machine transitions, by edge.",
			float64(tr.Count),
			obs.Label{Name: "from", Value: tr.From}, obs.Label{Name: "to", Value: tr.To})
	}
}
