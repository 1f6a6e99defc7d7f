package pipeline

import (
	"sync/atomic"

	"itscs/internal/metrics"
)

// HistogramSnapshot is a point-in-time copy of a latency histogram.
type HistogramSnapshot = metrics.HistogramSnapshot

// counters aggregates the engine's monotonic event counts. The two
// freshness histograms live here as well so the shard-level window-close
// path can observe into them through the same pointer the engine hands it
// for the counters.
type counters struct {
	ingested          atomic.Uint64
	admittedClean     atomic.Uint64
	taggedQuarantined atomic.Uint64
	taggedProbation   atomic.Uint64
	replayed          atomic.Uint64
	rejected          atomic.Uint64
	late              atomic.Uint64
	duplicates        atomic.Uint64
	nonFinite         atomic.Uint64
	stamped           atomic.Uint64
	unstamped         atomic.Uint64
	windowsClosed     atomic.Uint64
	windowsEmpty      atomic.Uint64
	windowsSkipped    atomic.Uint64
	windowsDropped    atomic.Uint64
	windowsDone       atomic.Uint64
	windowsFailed     atomic.Uint64
	warmStarts        atomic.Uint64
	coldStarts        atomic.Uint64
	subscriberDrops   atomic.Uint64
}

// Stats is a point-in-time snapshot of the engine's instrumentation; it
// marshals directly to the daemon's /metrics JSON.
type Stats struct {
	// Ingested counts accepted reports; Replayed counts the subset that
	// arrived through WAL recovery rather than the live transport. Rejected
	// counts refused reports, of which Late arrived below their fleet's
	// retention horizon, Duplicates targeted an already-filled cell, and
	// NonFinite carried NaN or ±Inf coordinates or velocities.
	Ingested uint64 `json:"ingested"`
	// AdmittedClean, TaggedQuarantined and TaggedProbation partition
	// Ingested by the admission gate's verdict on the submitter (see
	// Config.Gate): every accepted report lands in exactly one bucket, so
	// AdmittedClean + TaggedQuarantined + TaggedProbation == Ingested.
	// Without a gate everything is AdmittedClean.
	AdmittedClean     uint64 `json:"admitted_clean"`
	TaggedQuarantined uint64 `json:"tagged_quarantined"`
	TaggedProbation   uint64 `json:"tagged_probation"`
	Replayed          uint64 `json:"replayed"`
	Rejected          uint64 `json:"rejected"`
	Late              uint64 `json:"late"`
	Duplicates        uint64 `json:"duplicates"`
	NonFinite         uint64 `json:"non_finite"`
	// ReportsStamped and ReportsUnstamped partition Ingested by whether the
	// report carried an ingest freshness stamp (a second exact partition,
	// like the admission verdicts): ReportsStamped + ReportsUnstamped ==
	// Ingested, in every life including crashed ones. The engine itself
	// never stamps — stamps are applied at the network front doors and
	// round-trip through the WAL — so replay preserves the partition
	// instead of re-stamping.
	ReportsStamped   uint64 `json:"reports_stamped"`
	ReportsUnstamped uint64 `json:"reports_unstamped"`
	// WindowsClosed counts windows cut from the streams; WindowsEmpty were
	// discarded for holding no observations, WindowsSkipped were jumped
	// over to catch up after a large slot gap, WindowsDropped fell out of
	// the bounded queue (drop-oldest backpressure), WindowsProcessed ran
	// the detection loop to completion and WindowsFailed errored in it.
	WindowsClosed    uint64 `json:"windows_closed"`
	WindowsEmpty     uint64 `json:"windows_empty"`
	WindowsSkipped   uint64 `json:"windows_skipped"`
	WindowsDropped   uint64 `json:"windows_dropped"`
	WindowsProcessed uint64 `json:"windows_processed"`
	WindowsFailed    uint64 `json:"windows_failed"`
	// WindowsDroppedByFleet breaks WindowsDropped down by fleet, so
	// operators can see who is losing data; fleets with no drops are
	// omitted (and the map is nil when nothing has ever been dropped).
	WindowsDroppedByFleet map[string]uint64 `json:"windows_dropped_by_fleet,omitempty"`
	// WarmStarts and ColdStarts split processed windows by whether CORRECT
	// consumed the previous window's factorization.
	WarmStarts uint64 `json:"warm_starts"`
	ColdStarts uint64 `json:"cold_starts"`
	// SubscriberDrops counts results a slow subscriber failed to receive.
	SubscriberDrops uint64 `json:"subscriber_drops"`
	// QueueDepth and QueueCapacity describe the dispatch lanes right now,
	// summed over lanes.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	// Fleets is the number of shards currently materialized.
	Fleets int `json:"fleets"`
	// PhaseLatency holds per-phase wall-clock histograms: detect, correct,
	// check (cumulative per window across outer rounds), run (one whole
	// DETECT→CORRECT→CHECK loop) and wait (queue residence time).
	PhaseLatency map[string]HistogramSnapshot `json:"phase_latency_ms"`
	// AgeAtClose is the distribution of report age — wall-clock time from
	// the front-door ingest stamp to the close of the first window that
	// could detect on the report — and IngestToResult extends it to the
	// moment the window's detection result was published. Both are over
	// metrics.AgeBuckets and observe only stamped reports; each is the
	// merge of every fleet's own in Freshness.
	AgeAtClose     HistogramSnapshot `json:"age_at_close_ms"`
	IngestToResult HistogramSnapshot `json:"ingest_to_result_ms"`
	// Freshness breaks the freshness picture down per fleet, including each
	// stream's watermark position (lag). Nil until a fleet materializes.
	Freshness map[string]FleetFreshness `json:"freshness_by_fleet,omitempty"`
}

// FleetFreshness is one fleet's freshness and lag snapshot.
type FleetFreshness struct {
	// WatermarkSlot is the open window's first slot: every slot below it
	// has been closed (or skipped) for this fleet.
	WatermarkSlot int `json:"watermark_slot"`
	// NextSeq is the sequence number the open window will get; LatestSeq is
	// the newest published result's sequence (-1 before the first). Their
	// gap is the fleet's processing lag in windows.
	NextSeq   int `json:"next_seq"`
	LatestSeq int `json:"latest_seq"`
	// AgeAtClose and IngestToResult are the fleet-local freshness
	// histograms (same definitions as the engine-wide ones).
	AgeAtClose     HistogramSnapshot `json:"age_at_close_ms"`
	IngestToResult HistogramSnapshot `json:"ingest_to_result_ms"`
}

// FreshnessSummary condenses a freshness histogram into the quantiles the
// /status overview serves.
type FreshnessSummary struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// SummarizeFreshness estimates p50/p90/p99 from a freshness snapshot
// (which must have been observed over metrics.AgeBuckets).
func SummarizeFreshness(s HistogramSnapshot) FreshnessSummary {
	return FreshnessSummary{
		Count:  s.Count,
		MeanMS: s.MeanMS,
		P50MS:  metrics.Quantile(s, metrics.AgeBuckets, 0.50),
		P90MS:  metrics.Quantile(s, metrics.AgeBuckets, 0.90),
		P99MS:  metrics.Quantile(s, metrics.AgeBuckets, 0.99),
	}
}
