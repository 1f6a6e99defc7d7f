// Streaming: continuous sliding-window fault detection.
//
// This example wires up the always-on service that the itscs-serve daemon
// runs: a fleet of taxis uploads corrupted location reports over TCP into
// the pipeline engine, which slices the stream into overlapping sliding
// windows (window W, hop H), runs DETECT→CORRECT→CHECK on every window as
// it closes — warm-starting CORRECT from the previous window's
// factorization — and publishes each result to a subscription, where it is
// scored against the ground-truth corruption.
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"itscs/internal/corrupt"
	"itscs/internal/mcs"
	"itscs/internal/metrics"
	"itscs/internal/obs"
	"itscs/internal/pipeline"
	"itscs/internal/trace"
)

// params sizes the scenario; the smoke test shrinks it.
type params struct {
	participants int
	slots        int // total streamed slots
	window       int // W: slots per detection window
	hop          int // H: stride between windows
	missing      float64
	faulty       float64
}

func main() {
	p := params{
		participants: 40,
		slots:        240,
		window:       120,
		hop:          40,
		missing:      0.15,
		faulty:       0.1,
	}
	if err := run(p, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(p params, out io.Writer) error {
	// Simulated fleet with transport loss and kilometer-scale faults.
	tc := trace.DefaultConfig()
	tc.Participants = p.participants
	tc.Slots = p.slots
	tc.Seed = 7
	fleet, err := trace.Generate(tc)
	if err != nil {
		return err
	}
	plan := corrupt.DefaultPlan()
	plan.MissingRatio = p.missing
	plan.FaultyRatio = p.faulty
	corrupted, err := corrupt.Apply(plan, fleet.X, fleet.Y)
	if err != nil {
		return err
	}

	// The streaming engine: the fleet's lane runs its windows in order, so
	// every window after the first warm-starts from its predecessor.
	cfg := pipeline.DefaultConfig()
	cfg.Participants = p.participants
	cfg.WindowSlots = p.window
	cfg.HopSlots = p.hop
	// Observability, as itscs-serve wires it: anything that goes wrong
	// (dropped, failed, or slow windows) surfaces as a structured warning,
	// and every processed window leaves a trace span, printed at the end.
	logger, err := obs.NewLogger(out, obs.LogText, "warn")
	if err != nil {
		return err
	}
	cfg.Obs = &obs.LogObserver{Log: logger, SlowWindow: time.Minute}
	engine, err := pipeline.New(cfg)
	if err != nil {
		return err
	}
	// The buffer must hold every expected window: results are read only
	// after the stream ends.
	results, cancel := engine.Subscribe(p.slots / p.hop)
	defer cancel()

	// The TCP ingest front end, as run by itscs-serve.
	server := mcs.NewServer(engine)
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- server.Serve() }()
	fmt.Fprintf(out, "ingest server listening on %s (window %d slots, hop %d)\n",
		addr, p.window, p.hop)

	// The fleet uploads every surviving report in slot order.
	var reports []mcs.Report
	for s := 0; s < p.slots; s++ {
		for i := 0; i < p.participants; i++ {
			if corrupted.Existence.At(i, s) == 0 {
				continue
			}
			reports = append(reports, mcs.Report{
				Fleet: "taxi", Participant: i, Slot: s,
				X: corrupted.SX.At(i, s), Y: corrupted.SY.At(i, s),
				VX: fleet.VX.At(i, s), VY: fleet.VY.At(i, s),
			})
		}
	}
	// Upload through the production mcs.Client — the same transport the
	// cluster router's forwarder uses: a bounded send buffer, automatic
	// reconnect with backoff, and per-report ok/err acknowledgements.
	client := mcs.NewClient(addr.String(), mcs.ClientOptions{QueueDepth: len(reports)})
	for _, r := range reports {
		if err := client.Send(r); err != nil {
			return err
		}
	}
	ctx, cancelSend := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancelSend()
	if err := client.Flush(ctx); err != nil {
		return err
	}
	cst := client.Stats()
	if err := client.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "fleet uploaded %d reports (%d acknowledged, %d dials, %d retries)\n",
		len(reports), cst.Acked, cst.Dials, cst.Retries)

	if err := server.Close(); err != nil {
		return err
	}
	if err := <-serveDone; err != nil {
		return err
	}
	// The stream has ended: force the tail window out, then let the engine
	// drain its queue; Close also ends the subscription, terminating the
	// loop below once the buffered results are consumed.
	if err := engine.Flush("taxi"); err != nil {
		return err
	}
	engine.Close()

	// Score each window against the ground-truth corruption. A flushed tail
	// window may extend past the generated timeline; score only the slots
	// that were actually streamed (the rest are all-missing anyway).
	for r := range results {
		end := r.EndSlot
		if end > p.slots {
			end = p.slots
		}
		d, err := r.Output.Detection.Slice(0, p.participants, 0, end-r.StartSlot)
		if err != nil {
			return err
		}
		f, err := corrupted.Faulty.Slice(0, p.participants, r.StartSlot, end)
		if err != nil {
			return err
		}
		e, err := corrupted.Existence.Slice(0, p.participants, r.StartSlot, end)
		if err != nil {
			return err
		}
		conf, err := metrics.Compare(d, f, e)
		if err != nil {
			return err
		}
		start := "cold"
		if r.WarmStarted {
			start = "warm"
		}
		fmt.Fprintf(out,
			"window %d [%4d,%4d): %4d flagged, precision %.3f, recall %.3f, %s start, %d iterations, %.0f ms\n",
			r.Seq, r.StartSlot, r.EndSlot, r.Flagged,
			conf.Precision(), conf.Recall(), start, r.Iterations, r.RunMS)
	}

	st := engine.Stats()
	fmt.Fprintf(out, "processed %d windows (%d warm-started, %d dropped under backpressure)\n",
		st.WindowsProcessed, st.WarmStarts, st.WindowsDropped)

	// The trace ring keeps a per-phase breakdown of the recent windows —
	// the same records itscs-serve exposes at GET /trace/{fleet}.
	spans, err := engine.Trace("taxi")
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "trace (newest first):")
	for _, sp := range spans {
		fmt.Fprintf(out,
			"  window %d: wait %6.1f ms, detect %4.0f + correct %4.0f + check %4.0f ms, %d ASD sweeps\n",
			sp.Seq, sp.QueueWaitMS, sp.DetectMS, sp.CorrectMS, sp.CheckMS, sp.Sweeps)
	}
	return nil
}
