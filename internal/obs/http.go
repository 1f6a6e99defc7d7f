package obs

import (
	"encoding/json"
	"net/http"
	"strings"
	"time"
)

// HTTP server timeouts shared by both daemons. ReadHeaderTimeout bounds how
// long a connection may dribble its request header; IdleTimeout reclaims
// keep-alive connections that send nothing. Together they stop a
// slowloris-style client from pinning sockets open indefinitely.
const (
	ReadHeaderTimeout = 10 * time.Second
	IdleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns an http.Server for h with the shared timeouts.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: ReadHeaderTimeout, IdleTimeout: IdleTimeout}
}

// WriteMetrics answers a GET /metrics request for both daemons, so their
// content negotiation cannot drift: payload as JSON when the request asked
// for it (?format=json, or any Accept value naming application/json),
// otherwise the Prometheus text exposition render returns. Text is the
// default so a stock scrape config works unconfigured.
func WriteMetrics(w http.ResponseWriter, r *http.Request, payload any, render func() []byte) {
	if wantsJSON(r) {
		WriteJSON(w, http.StatusOK, payload)
		return
	}
	w.Header().Set("Content-Type", PromContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(render())
}

func wantsJSON(r *http.Request) bool {
	if r.URL.Query().Get("format") == "json" {
		return true
	}
	for _, accept := range r.Header.Values("Accept") {
		if strings.Contains(accept, "application/json") {
			return true
		}
	}
	return false
}

// Healthz returns both daemons' GET /healthz handler: a liveness answer
// with the uptime rt has counted.
func Healthz(rt *Runtime) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "uptime_s": rt.Uptime().Seconds()})
	}
}

// WriteJSON writes v as an indented application/json response, the one
// JSON shape both daemons serve.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
