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

// WantsJSON reports whether a request for a dual-format endpoint asked for
// the JSON form: either ?format=json or any Accept header value naming
// application/json. The default (no preference) is the Prometheus text
// exposition, so a stock scrape config works unconfigured. itscs-serve and
// itscs-router share this so their /metrics negotiation cannot drift.
func WantsJSON(r *http.Request) bool {
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

// WriteJSON writes v as an indented application/json response, the one
// JSON shape both daemons serve.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
