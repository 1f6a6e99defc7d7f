package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"itscs/internal/cluster"
	"itscs/internal/fault"
	"itscs/internal/mcs"
)

// recorder is a backend door's ingestor that accepts every report and
// keeps them in arrival order.
type recorder struct {
	mu  sync.Mutex
	got []mcs.Report
}

func (r *recorder) Ingest(rep mcs.Report) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.got = append(r.got, rep)
	return nil
}

func (r *recorder) IngestBatch(rs []mcs.Report, errs []error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.got = append(r.got, rs...)
	clear(errs[:len(rs)])
}

func (r *recorder) reports() []mcs.Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]mcs.Report(nil), r.got...)
}

// nopIngestor accepts every report and keeps nothing.
type nopIngestor struct{}

func (nopIngestor) Ingest(mcs.Report) error                   { return nil }
func (nopIngestor) IngestBatch(rs []mcs.Report, errs []error) { clear(errs[:len(rs)]) }

// doorBackends starts one mcs.Server door per name, on loopback TCP, in
// front of the ingestor ingest(name) returns. (An unbuffered net.Pipe
// would not do: a client writes a window of frames before it reads an ack,
// which relies on the transport buffering the acks.)
func doorBackends(tb testing.TB, names []string, ingest func(name string) mcs.Ingestor) []cluster.Backend {
	specs := make([]cluster.Backend, len(names))
	for i, name := range names {
		srv := mcs.NewServer(ingest(name))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		go func() { _ = srv.Serve() }()
		tb.Cleanup(func() { _ = srv.Close() })
		specs[i] = cluster.Backend{Name: name, Ingest: addr.String()}
	}
	return specs
}

// fleetsOnDistinctOwners finds n fleet names the ring places on n
// different members.
func fleetsOnDistinctOwners(t *testing.T, fwd *cluster.Forwarder, n int) []string {
	var fleets []string
	owners := map[string]bool{}
	for i := 0; i < 1000 && len(fleets) < n; i++ {
		fleet := fmt.Sprintf("fleet-%d", i)
		if owner, _ := fwd.Owner(fleet); !owners[owner] {
			owners[owner] = true
			fleets = append(fleets, fleet)
		}
	}
	if len(fleets) < n {
		t.Fatalf("found fleets on only %d distinct owners, want %d", len(fleets), n)
	}
	return fleets
}

// TestForwarderIngestBatchMatchesIngest feeds one mixed batch through
// IngestBatch and the same reports one at a time through Ingest of a
// second forwarder over the same backend names. The batch interleaves
// fleets and mixes in non-finite values, an empty fleet, a negative
// participant and an owner ejected mid-batch; a second batch meets a
// closed forwarder. Verdicts, the four counters, and the reports each
// backend receives, in order, must be equal.
func TestForwarderIngestBatchMatchesIngest(t *testing.T) {
	names := []string{"b0", "b1", "b2"}
	t0 := time.Date(2026, 10, 1, 9, 0, 0, 0, time.UTC)
	type side struct {
		fwd  *cluster.Forwarder
		recs map[string]*recorder
	}
	var sides [2]side
	var fleetA, fleetB, fleetC string
	for k := range sides {
		// The gate ejects fleet A's owner the first time it is asked about
		// fleet B's owner: an ejection that lands between two runs of A.
		ejected := map[string]bool{}
		var ownerA, ownerB string
		ready := func(name string) bool {
			if name == ownerB {
				ejected[ownerA] = true
			}
			return !ejected[name]
		}
		recs := make(map[string]*recorder, len(names))
		specs := doorBackends(t, names, func(name string) mcs.Ingestor {
			recs[name] = &recorder{}
			return recs[name]
		})
		fwd := cluster.NewForwarder(specs, cluster.NewRing(0), cluster.ForwarderOptions{
			Ready: ready,
			Clock: fault.NewVirtualClock(t0),
		})
		defer fwd.Close()
		fleets := fleetsOnDistinctOwners(t, fwd, 3)
		fleetA, fleetB, fleetC = fleets[0], fleets[1], fleets[2]
		ownerA, _ = fwd.Owner(fleetA)
		ownerB, _ = fwd.Owner(fleetB)
		sides[k] = side{fwd, recs}
	}
	nan, inf := math.NaN(), math.Inf(1)
	rep := func(fleet string, p, slot int) mcs.Report {
		return mcs.Report{Fleet: fleet, Participant: p, Slot: slot, X: float64(slot), Y: float64(p), VX: 1}
	}
	bad := func(r mcs.Report, mutate func(*mcs.Report)) mcs.Report {
		mutate(&r)
		return r
	}
	batch := []mcs.Report{
		rep(fleetA, 0, 0),
		rep(fleetA, 1, 0),
		bad(rep(fleetA, 2, 0), func(r *mcs.Report) { r.X = nan }),
		rep(fleetA, -1, 0),
		rep(fleetA, 3, 0),
		rep("", 0, 0),
		rep(fleetC, 0, 0),
		rep(fleetA, 0, 1),
		rep(fleetB, 0, 0), // ejects fleet A's owner
		bad(rep(fleetB, 1, 0), func(r *mcs.Report) { r.VY = inf }),
		rep(fleetB, 2, 0),
		rep(fleetA, 1, 1), // unroutable
		bad(rep(fleetA, 2, 1), func(r *mcs.Report) { r.Y = -inf }),
		rep(fleetA, 3, 1), // unroutable
		rep(fleetC, 1, 0),
		rep(fleetC, -2, 0),
		rep(fleetC, 2, 0),
	}
	want := []error{
		nil, nil, mcs.ErrNonFinite, mcs.ErrInvalidIdentity, nil, mcs.ErrInvalidIdentity, nil,
		nil, nil, mcs.ErrNonFinite, nil, cluster.ErrNoBackend, mcs.ErrNonFinite, cluster.ErrNoBackend,
		nil, mcs.ErrInvalidIdentity, nil,
	}
	closedBatch := []mcs.Report{
		rep(fleetC, 3, 0), // the owner's client is closed
		rep(fleetC, 4, 0),
		bad(rep(fleetC, 5, 0), func(r *mcs.Report) { r.VX = nan }),
		rep("", 1, 0),
		rep(fleetA, 4, 1), // still ejected
	}
	wantClosed := []error{mcs.ErrClientClosed, mcs.ErrClientClosed, mcs.ErrNonFinite, mcs.ErrInvalidIdentity, cluster.ErrNoBackend}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var verdicts [2][]error
	feed := func(k int, rs []mcs.Report) {
		if k == 0 {
			errs := make([]error, len(rs))
			sides[0].fwd.IngestBatch(append([]mcs.Report(nil), rs...), errs)
			verdicts[0] = append(verdicts[0], errs...)
			return
		}
		for _, r := range rs {
			verdicts[1] = append(verdicts[1], sides[1].fwd.Ingest(r))
		}
	}
	for k, s := range sides {
		feed(k, batch)
		if err := s.fwd.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if err := s.fwd.Close(); err != nil {
			t.Fatal(err)
		}
		feed(k, closedBatch)
	}

	want = append(want, wantClosed...)
	for i, w := range want {
		b, o := verdicts[0][i], verdicts[1][i]
		if (b == nil) != (o == nil) || (b != nil && b.Error() != o.Error()) {
			t.Fatalf("report %d: batch verdict %v, one at a time %v", i, b, o)
		}
		if (w == nil) != (b == nil) || (w != nil && !errors.Is(b, w)) {
			t.Fatalf("report %d: verdict %v, want %v", i, b, w)
		}
	}
	stb, sto := sides[0].fwd.Stats(), sides[1].fwd.Stats()
	counters := func(s cluster.ForwarderStats) [4]uint64 {
		return [4]uint64{s.Forwarded, s.Unroutable, s.NonFinite, s.InvalidIdentity}
	}
	if counters(stb) != counters(sto) {
		t.Fatalf("batch counters %v, one at a time %v", counters(stb), counters(sto))
	}
	if sum := stb.Forwarded + stb.Unroutable + stb.NonFinite + stb.InvalidIdentity; sum != uint64(len(want)) {
		t.Fatalf("counters %v sum to %d, want the %d reports offered", counters(stb), sum, len(want))
	}
	if stb.Forwarded != 9 {
		t.Fatalf("forwarded %d, want 9", stb.Forwarded)
	}

	received := 0
	for _, name := range names {
		gotB, gotO := sides[0].recs[name].reports(), sides[1].recs[name].reports()
		if len(gotB) != len(gotO) {
			t.Fatalf("backend %s received %d reports from the batch, %d one at a time", name, len(gotB), len(gotO))
		}
		for i := range gotB {
			b, o := gotB[i], gotO[i]
			if b.TraceID == 0 || o.TraceID == 0 || b.Origin != mcs.OriginRouter || b.IngestUnixMicro != t0.UnixMicro() {
				t.Fatalf("backend %s report %d not stamped at the router's door: %+v", name, i, b)
			}
			b.TraceID, o.TraceID = 0, 0
			if b != o {
				t.Fatalf("backend %s report %d: batch %+v, one at a time %+v", name, i, b, o)
			}
		}
		received += len(gotB)
	}
	if received != int(stb.Forwarded) {
		t.Fatalf("backends received %d reports, forwarded %d", received, stb.Forwarded)
	}
}

// TestForwarderIngestBatchConcurrentDoors has two doors feed one forwarder
// at once, each carrying its own fleets interleaved slot by slot: every
// report is forwarded, the counters conserve, and each backend receives
// each fleet's reports in the order its door sent them.
func TestForwarderIngestBatchConcurrentDoors(t *testing.T) {
	names := []string{"b0", "b1"}
	recs := map[string]*recorder{}
	specs := doorBackends(t, names, func(name string) mcs.Ingestor {
		recs[name] = &recorder{}
		return recs[name]
	})
	fwd := cluster.NewForwarder(specs, cluster.NewRing(0), cluster.ForwarderOptions{
		Client: mcs.ClientOptions{QueueDepth: 1 << 14},
	})
	defer fwd.Close()

	const doors, fleetsPerDoor, participants, slots = 2, 3, 4, 60
	streams := make([][]mcs.Report, doors)
	for d := range streams {
		for s := 0; s < slots; s++ {
			for f := 0; f < fleetsPerDoor; f++ {
				for p := 0; p < participants; p++ {
					streams[d] = append(streams[d], mcs.Report{
						Fleet: fmt.Sprintf("door%d-fleet%d", d, f), Participant: p, Slot: s, X: 1, Y: 2,
					})
				}
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for d := range streams {
		door := mcs.NewServer(fwd)
		addr, err := door.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = door.Serve() }()
		t.Cleanup(func() { _ = door.Close() })
		wg.Add(1)
		go func(rs []mcs.Report) {
			defer wg.Done()
			acked, err := mcs.SendReports(ctx, addr.String(), rs)
			if err != nil || acked != len(rs) {
				t.Errorf("door %s acked %d of %d: %v", addr, acked, len(rs), err)
			}
		}(streams[d])
	}
	wg.Wait()
	if err := fwd.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	total := doors * fleetsPerDoor * participants * slots
	st := fwd.Stats()
	if st.Forwarded != uint64(total) || st.Unroutable+st.NonFinite+st.InvalidIdentity != 0 {
		t.Fatalf("stats %+v, want all %d forwarded", st, total)
	}
	received := 0
	for _, name := range names {
		next := map[string]int{} // fleet → position of its next report in slot-major order
		for _, r := range recs[name].reports() {
			if owner, _ := fwd.Owner(r.Fleet); owner != name {
				t.Fatalf("fleet %s reached %s, owner %s", r.Fleet, name, owner)
			}
			if pos := r.Slot*participants + r.Participant; pos != next[r.Fleet] {
				t.Fatalf("backend %s: fleet %s slot %d participant %d arrived at position %d: order broken",
					name, r.Fleet, r.Slot, r.Participant, next[r.Fleet])
			}
			next[r.Fleet]++
			received++
		}
	}
	if received != total {
		t.Fatalf("backends received %d reports, want %d", received, total)
	}
}

// BenchmarkForwarderIngest measures the router's forward hop per report,
// one Ingest per report and in door-sized batches: a forwarder over two
// backends, each an mcs.Server in front of a no-op ingestor on loopback
// TCP, fed 24 fleets of 158 participants in slot-major
// order (the paper's shape). b.N counts reports, so ns/op and allocs/op
// are per report; the clients' delivery and the backends' decoding are
// included, and a flush every flushEvery reports keeps the queues from
// evicting.
func BenchmarkForwarderIngest(b *testing.B) {
	const fleets, participants, batch, flushEvery = 24, 158, 256, 4096
	stream := make([]mcs.Report, 0, fleets*participants)
	for f := 0; f < fleets; f++ {
		for p := 0; p < participants; p++ {
			stream = append(stream, mcs.Report{
				Fleet: fmt.Sprintf("fleet-%02d", f), Participant: p, Slot: 7, X: 1200.5, Y: 884.25, VX: 4.1, VY: -2,
			})
		}
	}
	for _, mode := range []string{"report", "batch"} {
		b.Run(mode, func(b *testing.B) {
			specs := doorBackends(b, []string{"backend-0", "backend-1"}, func(string) mcs.Ingestor { return nopIngestor{} })
			fwd := cluster.NewForwarder(specs, cluster.NewRing(0), cluster.ForwarderOptions{
				Client: mcs.ClientOptions{QueueDepth: 2 * flushEvery},
			})
			defer fwd.Close()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			rs, errs := make([]mcs.Report, batch), make([]error, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for sent := 0; sent < b.N; {
				n := min(batch, b.N-sent)
				if mode == "report" {
					for i := 0; i < n; i++ {
						if err := fwd.Ingest(stream[(sent+i)%len(stream)]); err != nil {
							b.Fatal(err)
						}
					}
				} else {
					for i := range rs[:n] {
						rs[i] = stream[(sent+i)%len(stream)]
					}
					fwd.IngestBatch(rs[:n], errs[:n])
				}
				sent += n
				if sent%flushEvery == 0 || sent == b.N {
					if err := fwd.Flush(ctx); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			st := fwd.Stats()
			if st.Forwarded != uint64(b.N) {
				b.Fatalf("forwarded %d of %d", st.Forwarded, b.N)
			}
			for name, cs := range st.Backends {
				if cs.Dropped != 0 || cs.Rejected != 0 {
					b.Fatalf("backend %s dropped %d, rejected %d", name, cs.Dropped, cs.Rejected)
				}
			}
		})
	}
}
