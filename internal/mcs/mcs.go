// Package mcs implements the mobile-crowdsensing upload path the paper
// assumes: participants periodically upload their location to a
// centralized server, which slots the reports into the sensory matrices
// I(TS,CS) consumes (paper §II-A).
//
// The package provides the pieces every door and hop shares:
//
//   - Report: one upload, with its finiteness and identity checks and its
//     freshness stamp;
//   - Server: a TCP door in front of an Ingestor (the streaming
//     pipeline), reading JSON lines from participants or binary frames
//     from a Client;
//   - Client: the pipelined, reconnecting sender the router forwards with,
//     which sends binary frames;
//   - the binary report layout the write-ahead log stores and the
//     router→backend hop carries.
package mcs

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Report is a single location upload from one participant for one slot.
type Report struct {
	// Fleet names the shard the report belongs to; the streaming pipeline
	// routes on it. Empty selects the receiver's default fleet for embedded
	// sinks, but the network front doors (itscs-serve, itscs-router) refuse
	// it — see CheckIdentity.
	Fleet string `json:"fleet,omitempty"`
	// Participant is the uploader's dense identifier in [0, participants).
	Participant int `json:"participant"`
	// Slot is the time-slot index in [0, slots). Streaming sinks accept any
	// non-negative slot and treat it as an absolute position on the
	// timeline.
	Slot int `json:"slot"`
	// X, Y are the reported coordinates in meters.
	X float64 `json:"x"`
	Y float64 `json:"y"`
	// VX, VY are the reported instantaneous velocity components in m/s.
	VX float64 `json:"vx"`
	VY float64 `json:"vy"`

	// IngestUnixMicro is the freshness stamp: the wall-clock instant
	// (microseconds since the Unix epoch) at which the report first crossed
	// a network front door. Zero means unstamped — an embedded sink that
	// bypassed the doors. The stamp fields come only from a door or the
	// binary hop behind one, never from a participant's JSON line: they
	// take no part in JSON, so a participant cannot forge its freshness age
	// or another report's trace. The doors stamp exactly once (StampIngest
	// is a no-op on a stamped report), so a router's stamp survives the hop
	// to a backend, replaying a durable record preserves the original
	// instant, and freshness accounting never double-counts queueing or
	// recovery time.
	IngestUnixMicro int64 `json:"-"`
	// Origin records which door stamped the report (OriginDirect for the
	// itscs-serve ingest listener, OriginRouter for the itscs-router
	// forwarder); OriginUnknown when unstamped.
	Origin Origin `json:"-"`
	// TraceID links the report to its end-to-end trace (ingest →
	// wal-commit → window close → detect → publish). Zero means untraced.
	TraceID uint64 `json:"-"`
}

// Origin identifies the network front door that stamped a report.
type Origin uint8

// Origin values, in wire order. New doors append; never renumber.
const (
	OriginUnknown Origin = iota
	OriginDirect         // stamped by the itscs-serve ingest listener
	OriginRouter         // stamped by the itscs-router forwarder
)

// String names the origin for statuses and traces.
func (o Origin) String() string {
	switch o {
	case OriginDirect:
		return "direct"
	case OriginRouter:
		return "router"
	}
	return "unknown"
}

// Stamped reports whether the report carries an ingest freshness stamp.
func (r *Report) Stamped() bool { return r.IngestUnixMicro != 0 }

// StampIngest fills the freshness stamp and origin, and assigns a trace ID
// if the report has none. It is a no-op on an already-stamped report, which
// is what keeps stamps exactly-once across the binary hop (router → serve)
// and across WAL replay.
func StampIngest(r *Report, now time.Time, origin Origin) {
	if r.IngestUnixMicro != 0 {
		return
	}
	r.IngestUnixMicro = now.UnixMicro()
	r.Origin = origin
	if r.TraceID == 0 {
		r.TraceID = NextTraceID()
	}
}

// ErrNonFinite is returned for a report carrying NaN or ±Inf coordinates or
// velocities. Such values must never reach a sensory matrix: a single NaN
// poisons the median filter's window and the ASD objective, silently
// disabling detection for every participant sharing the subspace.
var ErrNonFinite = errors.New("mcs: non-finite report value")

// CheckFinite errors unless all four payload values are finite.
func (r Report) CheckFinite() error {
	for _, v := range [...]float64{r.X, r.Y, r.VX, r.VY} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: participant %d slot %d (x=%v y=%v vx=%v vy=%v)",
				ErrNonFinite, r.Participant, r.Slot, r.X, r.Y, r.VX, r.VY)
		}
	}
	return nil
}

// ErrInvalidIdentity is returned for a report whose identity fields cannot
// route or be attributed: an empty fleet name or a negative participant id.
// Such rows would either land in an implicit default fleet (unroutable in a
// sharded cluster, where fleet names drive placement) or credit no
// participant at all (invisible to the reputation ledger). The network
// front doors — the itscs-serve ingest listener and the itscs-router
// forwarder — refuse them with a counted invalid_identity rejection;
// embedded single-fleet sinks may still choose a default fleet themselves.
var ErrInvalidIdentity = errors.New("mcs: invalid report identity")

// CheckIdentity errors unless the report names a routable, attributable
// identity: a non-empty fleet and a non-negative participant.
func (r Report) CheckIdentity() error {
	if r.Fleet == "" || r.Participant < 0 {
		return fmt.Errorf("%w: fleet %q participant %d", ErrInvalidIdentity, r.Fleet, r.Participant)
	}
	return nil
}

// ErrDuplicateReport is returned when a (participant, slot) cell already
// holds a report. The first write wins; later uploads are rejected so a
// malicious participant cannot overwrite accepted data.
var ErrDuplicateReport = errors.New("mcs: duplicate report")

// Ingestor consumes location reports. The streaming pipeline implements it
// for continuous sliding-window detection. Implementations must be safe for
// concurrent use — Server calls Ingest from one goroutine per connection.
// Server gives an Ingestor that is also a BatchIngestor each read's
// reports in one IngestBatch call instead.
type Ingestor interface {
	Ingest(Report) error
}

// BatchIngestor takes many reports in one call: IngestBatch sets errs[i]
// to report i's verdict (nil when accepted), exactly as Ingest of each
// report in order would, so len(errs) must be at least len(rs). It may
// modify rs. The streaming pipeline implements it to commit a whole batch
// to its write-ahead log at once.
type BatchIngestor interface {
	IngestBatch(rs []Report, errs []error)
}
