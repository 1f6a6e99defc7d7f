package cluster_test

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"itscs/internal/cluster"
	"itscs/internal/fault"
	"itscs/internal/mcs"
	"itscs/internal/obs"
	"itscs/internal/pipeline"
)

// TestForwarderStampsIngest: the router's forwarder is an ingest door, so it
// stamps every report it accepts — origin router, ingest time from its clock —
// and the stamp survives the wire to the backend engine. Reports that arrive
// already stamped (a proxy hop, a replayed frame) pass through untouched.
func TestForwarderStampsIngest(t *testing.T) {
	backends := startBackends(t, 2)
	ring := cluster.NewRing(64)
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	clock := fault.NewVirtualClock(t0)
	fwd := cluster.NewForwarder(specs(backends), ring, cluster.ForwarderOptions{Clock: clock})
	defer fwd.Close()

	if err := fwd.Ingest(mcs.Report{Fleet: "stampy", Participant: 0, Slot: 0, X: 1, Y: 1}); err != nil {
		t.Fatal(err)
	}

	// A report stamped upstream keeps its original door and instant.
	earlier := t0.Add(-time.Minute)
	pre := mcs.Report{Fleet: "stampy", Participant: 1, Slot: 0, X: 2, Y: 2}
	mcs.StampIngest(&pre, earlier, mcs.OriginDirect)
	if err := fwd.Ingest(pre); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := fwd.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	owner, _ := fwd.Owner("stampy")
	var engine *pipeline.Engine
	for _, b := range backends {
		if b.Spec().Name == owner {
			engine = b.Engine()
		}
	}
	if engine == nil {
		t.Fatal("no backend owns the fleet")
	}
	st := engine.Stats()
	if st.Ingested != 2 || st.ReportsStamped != 2 || st.ReportsUnstamped != 0 {
		t.Fatalf("backend stats = ingested %d stamped %d unstamped %d, want 2/2/0",
			st.Ingested, st.ReportsStamped, st.ReportsUnstamped)
	}
	traces, err := engine.Traces("stampy")
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 {
		t.Fatalf("backend retained %d traces, want 2", len(traces))
	}
	byPart := map[int]int{}
	for i, tr := range traces {
		byPart[tr.Participant] = i
	}
	routed := traces[byPart[0]]
	if routed.Origin != mcs.OriginRouter.String() {
		t.Errorf("forwarded report origin = %q, want router", routed.Origin)
	}
	if got := routed.Stages[0].AtUnixMicro; got != t0.UnixMicro() {
		t.Errorf("forwarded report stamped at %d, want the forwarder clock %d", got, t0.UnixMicro())
	}
	kept := traces[byPart[1]]
	if kept.Origin != mcs.OriginDirect.String() {
		t.Errorf("pre-stamped report origin = %q, want direct (forwarder must not restamp)", kept.Origin)
	}
	if got := kept.Stages[0].AtUnixMicro; got != earlier.UnixMicro() {
		t.Errorf("pre-stamped report instant = %d, want the original %d", got, earlier.UnixMicro())
	}
	if kept.ID != obs.TraceIDString(pre.TraceID) {
		t.Errorf("trace id %s, want the pre-assigned %s", kept.ID, obs.TraceIDString(pre.TraceID))
	}
}

// TestRouterDoorStampsParticipantLine sends the router's door a
// participant JSON line that also carries ingest_us, origin and trace_id:
// the door ignores them, and the forwarder stamps the report with its own
// clock, origin router and a newly minted trace ID, which reach the
// backend.
func TestRouterDoorStampsParticipantLine(t *testing.T) {
	backends := startBackends(t, 1)
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	fwd := cluster.NewForwarder(specs(backends), cluster.NewRing(64), cluster.ForwarderOptions{Clock: fault.NewVirtualClock(t0)})
	defer fwd.Close()
	door := mcs.NewServer(fwd)
	addr, err := door.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go door.Serve()
	defer door.Close()

	const forged = 0x0123456789abcdef
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	fmt.Fprintf(conn, `{"fleet":"stampy","participant":0,"slot":0,"x":1,"y":1,"vx":0,"vy":0,"ingest_us":5,"origin":1,"trace_id":%d}`+"\n", uint64(forged))
	if ack, err := bufio.NewReader(conn).ReadString('\n'); err != nil || ack != "ok\n" {
		t.Fatalf("ack %q, %v", ack, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := fwd.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	traces, err := backends[0].Engine().Traces("stampy")
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 {
		t.Fatalf("backend retained %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Origin != mcs.OriginRouter.String() || tr.Stages[0].AtUnixMicro != t0.UnixMicro() {
		t.Errorf("trace origin %q at %d, want router at the forwarder clock %d", tr.Origin, tr.Stages[0].AtUnixMicro, t0.UnixMicro())
	}
	if tr.ID == obs.TraceIDString(forged) || tr.ID == obs.TraceIDString(0) {
		t.Errorf("trace id %s, want a newly minted one", tr.ID)
	}
}

// TestMergeStatsFreshness pins the aggregation the router's /metrics and
// /status depend on: stamped counters sum, freshness histograms merge
// bucket-wise, and the per-fleet map unions (fleets shard whole).
func TestMergeStatsFreshness(t *testing.T) {
	snap := func(count uint64, sumMS float64, buckets map[int64]uint64) pipeline.HistogramSnapshot {
		return pipeline.HistogramSnapshot{Count: count, SumMS: sumMS, Buckets: buckets}
	}
	dst := pipeline.Stats{
		Ingested: 10, ReportsStamped: 7, ReportsUnstamped: 3,
		AgeAtClose:     snap(4, 400, map[int64]uint64{100: 3, 500: 1}),
		IngestToResult: snap(4, 480, map[int64]uint64{500: 4}),
		Freshness: map[string]pipeline.FleetFreshness{
			"alpha": {WatermarkSlot: 16, NextSeq: 4, LatestSeq: 3,
				AgeAtClose: snap(4, 400, map[int64]uint64{100: 3, 500: 1})},
		},
	}
	src := pipeline.Stats{
		Ingested: 5, ReportsStamped: 5,
		AgeAtClose:     snap(2, 9000, map[int64]uint64{500: 1, -1: 1}),
		IngestToResult: snap(2, 9100, map[int64]uint64{-1: 2}),
		Freshness: map[string]pipeline.FleetFreshness{
			"beta": {WatermarkSlot: 8, NextSeq: 2, LatestSeq: 1,
				AgeAtClose: snap(2, 9000, map[int64]uint64{500: 1, -1: 1})},
		},
	}
	cluster.MergeStats(&dst, src)

	if dst.Ingested != 15 || dst.ReportsStamped != 12 || dst.ReportsUnstamped != 3 {
		t.Fatalf("counters = %d/%d/%d, want 15/12/3",
			dst.Ingested, dst.ReportsStamped, dst.ReportsUnstamped)
	}
	age := dst.AgeAtClose
	if age.Count != 6 || age.SumMS != 9400 {
		t.Fatalf("merged age histogram = count %d sum %g, want 6/9400", age.Count, age.SumMS)
	}
	wantBuckets := map[int64]uint64{100: 3, 500: 2, -1: 1}
	for bound, n := range wantBuckets {
		if age.Buckets[bound] != n {
			t.Errorf("bucket %d = %d, want %d", bound, age.Buckets[bound], n)
		}
	}
	if dst.IngestToResult.Count != 6 || dst.IngestToResult.SumMS != 9580 {
		t.Fatalf("merged ingest-to-result = %+v", dst.IngestToResult)
	}
	if len(dst.Freshness) != 2 {
		t.Fatalf("freshness union has %d fleets, want 2", len(dst.Freshness))
	}
	if ff := dst.Freshness["beta"]; ff.WatermarkSlot != 8 || ff.AgeAtClose.Count != 2 {
		t.Errorf("beta freshness = %+v", ff)
	}
	if ff := dst.Freshness["alpha"]; ff.AgeAtClose.SumMS != 400 {
		t.Errorf("alpha freshness = %+v", ff)
	}

	// The quantile summary the status plane serves stays coherent on the
	// merged histogram: counts carry, quantiles are ordered.
	sum := pipeline.SummarizeFreshness(dst.AgeAtClose)
	if sum.Count != 6 {
		t.Fatalf("summary count = %d, want 6", sum.Count)
	}
	if sum.P50MS > sum.P90MS || sum.P90MS > sum.P99MS {
		t.Errorf("summary quantiles not monotone: %+v", sum)
	}
}
