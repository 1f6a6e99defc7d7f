package pipeline

import (
	"context"
	"math"
	"testing"
	"time"

	"itscs"
	"itscs/internal/corrupt"
	"itscs/internal/mat"
	"itscs/internal/mcs"
	"itscs/internal/metrics"
	"itscs/internal/trace"
)

// TestEndToEndStreamMatchesBatch is the acceptance test for the streaming
// engine: a corrupted synthetic fleet is uploaded report by report through
// the real TCP ingest path into itscs-serve's engine, and every closed
// window's detection quality must match the one-shot batch framework run on
// exactly the same window of data. At least one window must warm-start.
func TestEndToEndStreamMatchesBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("streams several full-scale detection windows")
	}
	const (
		n     = 40
		w     = 120
		h     = 40
		slots = w + 3*h // three windows close while streaming
	)
	fleet, res := fixture(t, n, slots, 0.15, 0.15)

	e, err := New(mechConfig(n, w, h))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	results, cancel := e.Subscribe(8)
	defer cancel()

	srv := mcs.NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close server: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("serve: %v", err)
		}
	})

	reports := fixtureReports("suv", fleet, res)
	acked, err := mcs.SendReports(context.Background(), addr.String(), reports)
	if err != nil {
		t.Fatal(err)
	}
	if acked != len(reports) {
		t.Fatalf("acked %d of %d reports", acked, len(reports))
	}

	var got []*WindowResult
	deadline := time.After(4 * time.Minute)
	for len(got) < 3 {
		select {
		case r, ok := <-results:
			if !ok {
				t.Fatal("subscription closed early")
			}
			got = append(got, r)
		case <-deadline:
			t.Fatalf("timed out with %d of 3 window results", len(got))
		}
	}

	warm := 0
	for _, r := range got {
		if r.WarmStarted {
			warm++
		}
		streamF1 := windowF1(t, r.Output.Detection, res, r.StartSlot, r.EndSlot)
		batchF1 := batchWindowF1(t, fleet, res, r.StartSlot, r.EndSlot)
		if diff := math.Abs(streamF1 - batchF1); diff > 0.02 {
			t.Errorf("window [%d,%d): streaming F1 %.4f vs batch F1 %.4f (|Δ| = %.4f > 0.02)",
				r.StartSlot, r.EndSlot, streamF1, batchF1, diff)
		}
	}
	if warm == 0 {
		t.Error("no window warm-started")
	}

	st := e.Stats()
	if st.WarmStarts < 1 {
		t.Errorf("warm-start counter = %d, want >= 1", st.WarmStarts)
	}
	if st.WindowsProcessed < 3 {
		t.Errorf("windows processed = %d, want >= 3", st.WindowsProcessed)
	}
	if st.Ingested != uint64(len(reports)) {
		t.Errorf("ingested = %d, want %d", st.Ingested, len(reports))
	}
}

// windowF1 scores a detection matrix against the ground-truth corruption of
// the window [start, end).
func windowF1(t *testing.T, d *mat.Dense, res *corrupt.Result, start, end int) float64 {
	t.Helper()
	n, _ := res.Faulty.Dims()
	f, err := res.Faulty.Slice(0, n, start, end)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := res.Existence.Slice(0, n, start, end)
	if err != nil {
		t.Fatal(err)
	}
	conf, err := metrics.Compare(d, f, ex)
	if err != nil {
		t.Fatal(err)
	}
	return conf.F1()
}

// batchWindowF1 runs the public one-shot framework on exactly the data the
// streaming engine saw for the window [start, end) and scores it.
func batchWindowF1(t *testing.T, fleet *trace.Fleet, res *corrupt.Result, start, end int) float64 {
	t.Helper()
	n, _ := res.SX.Dims()
	w := end - start
	ds := itscs.Dataset{
		X: make([][]float64, n), Y: make([][]float64, n),
		VX: make([][]float64, n), VY: make([][]float64, n),
	}
	for i := 0; i < n; i++ {
		x, y := make([]float64, w), make([]float64, w)
		vx, vy := make([]float64, w), make([]float64, w)
		for j := 0; j < w; j++ {
			if res.Existence.At(i, start+j) == 0 {
				x[j], y[j] = math.NaN(), math.NaN()
				vx[j], vy[j] = math.NaN(), math.NaN()
				continue
			}
			x[j], y[j] = res.SX.At(i, start+j), res.SY.At(i, start+j)
			vx[j], vy[j] = fleet.VX.At(i, start+j), fleet.VY.At(i, start+j)
		}
		ds.X[i], ds.Y[i], ds.VX[i], ds.VY[i] = x, y, vx, vy
	}
	out, err := itscs.Run(ds)
	if err != nil {
		t.Fatal(err)
	}
	d := mat.New(n, w)
	for i, row := range out.Faulty {
		for j, faulty := range row {
			if faulty {
				d.Set(i, j, 1)
			}
		}
	}
	return windowF1(t, d, res, start, end)
}
