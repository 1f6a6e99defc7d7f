// Command itscs-router fronts a fleet-sharded cluster of itscs-serve
// backends. Participants upload location reports to the router's mcs TCP
// ingest exactly as they would to a single backend; the router places each
// fleet on one backend with a consistent-hash ring and streams its reports
// there over a reconnecting mcs client, so every fleet's sliding windows —
// and therefore its DETECT→CORRECT→CHECK results — are computed whole on
// one engine, identical to a single-node run.
//
// A health prober sweeps every backend's GET /readyz on a fixed cadence:
// backends recovering their WAL answer 503 and stay out of rotation until
// recovery completes. An ejected backend's fleets are NOT remapped — their
// window state lives only on the owner — so their new reports are refused
// with an "err" ack and counted until the owner readmits. The HTTP side is
// a scatter-gather query plane: fleet reads proxy to the owner, cluster
// reads fan out to every backend and merge.
//
// Usage:
//
//	itscs-router -backends 10.0.0.1:7070=10.0.0.1:8080,10.0.0.2:7070=10.0.0.2:8080
//	             [-ingest 127.0.0.1:7071] [-http 127.0.0.1:8081]
//	             [-vnodes 64] [-probe-interval 2s] [-probe-timeout 1s]
//	             [-client-queue 1024] [-idle-timeout 2m]
//	             [-log-format text|json] [-log-level info]
//
// HTTP endpoints:
//
//	GET /healthz         router liveness (JSON)
//	GET /readyz          200 while at least one backend is admitted, else 503
//	GET /backends        per-backend health and probe counters (JSON)
//	GET /results         union of every backend's fleets (JSON)
//	GET /results/{fleet} proxied to the fleet's owner (503 while ejected)
//	GET /reputation      merged trust ledgers of every backend (JSON)
//	GET /reputation/{fleet}               proxied to the fleet's owner
//	GET /reputation/{fleet}/{participant} proxied to the fleet's owner
//	GET /trace/{fleet}   scatter-gather trace lookup: every backend's
//	                     /trace/{fleet} answer, attributed by backend;
//	                     ?id={trace-id} passes the trace-ID lookup through
//	GET /status          cluster overview (JSON): backends, ring ownership,
//	                     per-fleet freshness quantiles and window lag,
//	                     every backend's own /status attributed by name
//	GET /metrics         Prometheus text exposition of the router and the
//	                     aggregated cluster; JSON with Accept:
//	                     application/json or ?format=json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"itscs/internal/cluster"
	"itscs/internal/mcs"
	"itscs/internal/node"
	"itscs/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "itscs-router:", err)
		os.Exit(1)
	}
}

// run parses flags and serves until a signal or a listener failure. The
// stop channel substitutes for signals in tests; nil means OS signals.
func run(args []string, out io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("itscs-router", flag.ContinueOnError)
	ingestAddr := fs.String("ingest", "127.0.0.1:7071", "TCP address for participant report ingest")
	httpAddr := fs.String("http", "127.0.0.1:8081", "HTTP address for health, metrics and query fan-out")
	backendsFlag := fs.String("backends", "", "comma-separated ingest=http backend pairs (required)")
	vnodes := fs.Int("vnodes", cluster.DefaultVnodes, "virtual nodes per backend on the placement ring")
	probeInterval := fs.Duration("probe-interval", 2*time.Second, "backend /readyz probe cadence")
	probeTimeout := fs.Duration("probe-timeout", time.Second, "per-probe timeout")
	clientQueue := fs.Int("client-queue", 1024, "per-backend send buffer depth (drop-oldest beyond)")
	idle := fs.Duration("idle-timeout", mcs.DefaultIdleTimeout, "ingest connection idle limit (0 disables)")
	logFormat := fs.String("log-format", obs.LogText, "log output format: text or json")
	logLevel := fs.String("log-level", "info", "log level floor: debug, info, warn or error")
	if err := fs.Parse(args); err != nil {
		return err
	}
	backends, err := cluster.ParseBackends(*backendsFlag)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(out, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	// Startup banner: build identity and topology, first line in the log.
	banner := make([]any, 0, 8)
	for _, a := range obs.BuildInfoAttrs() {
		banner = append(banner, a)
	}
	banner = append(banner, "backends", len(backends), "vnodes", *vnodes)
	logger.Info("itscs-router starting", banner...)

	r, err := newRouter(routerOptions{
		ingestAddr:    *ingestAddr,
		httpAddr:      *httpAddr,
		backends:      backends,
		vnodes:        *vnodes,
		probeInterval: *probeInterval,
		probeTimeout:  *probeTimeout,
		clientQueue:   *clientQueue,
		idle:          *idle,
		log:           logger,
	})
	if err != nil {
		return err
	}
	r.serve()
	logger.Info("routing",
		"ingest", r.ingestAddr.String(),
		"http", r.httpBound.String(),
		"backends", len(backends),
		"vnodes", *vnodes)

	if stop == nil {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
		select {
		case s := <-sig:
			logger.Info("draining", "signal", s.String())
		case err := <-r.fatal:
			_ = r.close()
			return err
		}
	} else {
		select {
		case <-stop:
		case err := <-r.fatal:
			_ = r.close()
			return err
		}
	}
	return r.close()
}

// routerOptions collects the wiring newRouter needs. probe and onChange
// are test seams for deterministic health transitions.
type routerOptions struct {
	ingestAddr    string
	httpAddr      string
	backends      []cluster.Backend
	vnodes        int
	probeInterval time.Duration
	probeTimeout  time.Duration
	clientQueue   int
	idle          time.Duration
	log           *slog.Logger
	probe         cluster.ProbeFunc
	onChange      func(cluster.Backend, bool)
}

// router wires the data plane (mcs ingest → forwarder), the control plane
// (prober), and the query plane (HTTP fan-out) together.
type router struct {
	log        *slog.Logger
	backends   []cluster.Backend
	ring       *cluster.Ring
	prober     *cluster.Prober
	fwd        *cluster.Forwarder
	query      *cluster.Query
	ingest     *mcs.Server
	ingestAddr net.Addr
	http       *http.Server
	httpLn     net.Listener
	httpBound  net.Addr
	runtime    *obs.Runtime
	fatal      chan error
}

// flushTimeout bounds the graceful-shutdown drain of the forward buffers.
// With a backend down its client would retry forever; after the timeout
// the remaining reports are abandoned and counted as dropped.
const flushTimeout = 5 * time.Second

func newRouter(opt routerOptions) (*router, error) {
	logger := opt.log
	if logger == nil {
		logger = obs.Discard()
	}
	r := &router{
		log:      logger,
		backends: opt.backends,
		ring:     cluster.NewRing(opt.vnodes),
		runtime:  obs.NewRuntime(),
		fatal:    make(chan error, 2),
	}
	r.prober = cluster.NewProber(opt.backends, cluster.ProberOptions{
		Interval: opt.probeInterval,
		Timeout:  opt.probeTimeout,
		Probe:    opt.probe,
		OnChange: opt.onChange,
		Log:      logger,
	})
	r.fwd = cluster.NewForwarder(opt.backends, r.ring, cluster.ForwarderOptions{
		Client: mcs.ClientOptions{QueueDepth: opt.clientQueue},
		Ready:  r.prober.Ready,
		Log:    logger,
	})
	r.query = cluster.NewQuery(opt.backends, r.ring, r.prober.Ready, nil)
	r.ingest = mcs.NewServer(r.fwd)
	r.ingest.IdleTimeout = opt.idle
	var err error
	if r.ingestAddr, err = r.ingest.Listen(opt.ingestAddr); err != nil {
		_ = r.fwd.Close()
		return nil, err
	}
	if r.httpLn, err = net.Listen("tcp", opt.httpAddr); err != nil {
		_ = r.ingest.Close()
		_ = r.fwd.Close()
		return nil, fmt.Errorf("http listen: %w", err)
	}
	r.httpBound = r.httpLn.Addr()
	r.http = obs.NewHTTPServer(r.mux())
	return r, nil
}

// serve starts the prober and the listeners; failures surface on r.fatal.
func (r *router) serve() {
	r.prober.Start()
	go func() {
		if err := r.ingest.Serve(); err != nil {
			r.fatal <- fmt.Errorf("ingest: %w", err)
		}
	}()
	go func() {
		if err := r.http.Serve(r.httpLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
			r.fatal <- fmt.Errorf("http: %w", err)
		}
	}()
}

// close shuts the transport down first so no report arrives after the
// forward buffers drain, flushes what it can within flushTimeout, and
// closes the clients (counting whatever could not be delivered).
func (r *router) close() error {
	err := r.ingest.Close()
	if herr := r.http.Close(); err == nil {
		err = herr
	}
	r.prober.Close()
	ctx, cancel := context.WithTimeout(context.Background(), flushTimeout)
	defer cancel()
	if ferr := r.fwd.Flush(ctx); ferr != nil {
		r.log.Warn("shutdown flush incomplete, abandoning queued reports", "err", ferr)
	}
	if cerr := r.fwd.Close(); err == nil {
		err = cerr
	}
	return err
}

func (r *router) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", obs.Healthz(r.runtime))
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, req *http.Request) {
		ready := r.prober.ReadyCount()
		status := http.StatusOK
		if ready == 0 {
			// No admitted backend: every report would be refused, so tell
			// load balancers to look elsewhere.
			status = http.StatusServiceUnavailable
		}
		obs.WriteJSON(w, status, map[string]any{
			"ready_backends": ready,
			"backends":       len(r.backends),
		})
	})
	mux.HandleFunc("GET /backends", func(w http.ResponseWriter, req *http.Request) {
		obs.WriteJSON(w, http.StatusOK, map[string]any{"backends": r.prober.Snapshot()})
	})
	mux.HandleFunc("GET /results", func(w http.ResponseWriter, req *http.Request) {
		obs.WriteJSON(w, http.StatusOK, r.query.Fleets(req.Context()))
	})
	mux.HandleFunc("GET /results/{fleet}", func(w http.ResponseWriter, req *http.Request) {
		resp, err := r.query.Result(req.Context(), req.PathValue("fleet"))
		relayOwner(w, resp, err)
	})
	mux.HandleFunc("GET /reputation", func(w http.ResponseWriter, req *http.Request) {
		obs.WriteJSON(w, http.StatusOK, r.query.Reputation(req.Context()))
	})
	mux.HandleFunc("GET /reputation/{fleet}", func(w http.ResponseWriter, req *http.Request) {
		resp, err := r.query.ReputationFleet(req.Context(), req.PathValue("fleet"))
		relayOwner(w, resp, err)
	})
	mux.HandleFunc("GET /reputation/{fleet}/{participant}", func(w http.ResponseWriter, req *http.Request) {
		resp, err := r.query.ReputationParticipant(req.Context(),
			req.PathValue("fleet"), req.PathValue("participant"))
		relayOwner(w, resp, err)
	})
	mux.HandleFunc("GET /trace/{fleet}", func(w http.ResponseWriter, req *http.Request) {
		// Scatter-gather rather than owner-proxy: after a ring change (or an
		// operator misremembering placement) the trace may live on a backend
		// that no longer owns the fleet, and each answer stays attributed.
		obs.WriteJSON(w, http.StatusOK,
			r.query.TraceFleet(req.Context(), req.PathValue("fleet"), req.URL.RawQuery))
	})
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, req *http.Request) {
		obs.WriteJSON(w, http.StatusOK, r.statusPayload(req))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, req *http.Request) {
		payload := metricsPayload{
			Forwarder:  r.fwd.Stats(),
			Backends:   r.prober.Snapshot(),
			Cluster:    r.query.Metrics(req.Context()),
			Reputation: r.query.Reputation(req.Context()),
		}
		obs.WriteMetrics(w, req, payload, func() []byte { return renderProm(payload, r.runtime) })
	})
	return mux
}

// statusPayload assembles the router's /status cluster overview: the
// prober's health view, per-fleet ring ownership and freshness (quantiles
// and window lag from the aggregated engine stats), the engine counters
// summed over the backends, and every backend's own /status answer,
// attributed by name.
func (r *router) statusPayload(req *http.Request) map[string]any {
	ctx := req.Context()
	cm := r.query.Metrics(ctx)
	freshness, byFleet := node.FreshnessStatus(cm.Aggregate)
	for fleet, entry := range byFleet {
		entry["owner"], _ = r.fwd.Owner(fleet)
	}
	fwd := r.fwd.Stats()
	return map[string]any{
		"status":         "ok",
		"uptime_s":       r.runtime.Uptime().Seconds(),
		"ready_backends": r.prober.ReadyCount(),
		"backends":       r.prober.Snapshot(),
		"forwarder": map[string]any{
			"forwarded":        fwd.Forwarded,
			"unroutable":       fwd.Unroutable,
			"non_finite":       fwd.NonFinite,
			"invalid_identity": fwd.InvalidIdentity,
		},
		"freshness":      freshness,
		"engine":         node.EngineStatus(cm.Aggregate),
		"backend_status": r.query.Status(ctx),
	}
}

// metricsPayload is the router's /metrics JSON: its own data plane, the
// health view, the aggregated cluster engine stats, and the merged
// reputation ledgers.
type metricsPayload struct {
	Forwarder  cluster.ForwarderStats    `json:"forwarder"`
	Backends   []cluster.BackendStatus   `json:"backends"`
	Cluster    cluster.ClusterMetrics    `json:"cluster"`
	Reputation cluster.ClusterReputation `json:"reputation"`
}

// relayOwner writes a proxied owner answer verbatim (200 result, 204 no
// window yet, 404 unknown fleet or participant, 400 malformed id), mapping
// an ejected owner to 503 and any other proxy failure to 502.
func relayOwner(w http.ResponseWriter, resp *cluster.ProxyResponse, err error) {
	switch {
	case errors.Is(err, cluster.ErrNoBackend):
		obs.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"error": err.Error()})
	case err != nil:
		obs.WriteJSON(w, http.StatusBadGateway, map[string]any{"error": err.Error()})
	default:
		if resp.ContentType != "" {
			w.Header().Set("Content-Type", resp.ContentType)
		}
		w.WriteHeader(resp.Status)
		_, _ = w.Write(resp.Body)
	}
}
