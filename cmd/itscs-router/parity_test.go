package main

import (
	"context"
	"io"
	"net/http"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"itscs/internal/mcs"
	"itscs/internal/sim"
)

// TestRouterNodeParity pins the router's cluster view to the node's own:
// over a one-backend cluster, once the backend's engine has drained, every
// itscs_cluster_<x> engine and ledger sample on the router equals the
// backend's itscs_<x> sample with the same labels, the router's /status
// engine object equals the backend's, and its freshness object does too,
// owner attribution aside. Each
// shared family is taken from the router's golden series list, so a series
// missing from the shared emitter fails here as well as a Stats field the
// cluster merge leaves out.
func TestRouterNodeParity(t *testing.T) {
	backends := startBackends(t, 1)
	r, _ := startRouter(t, backends, 200*time.Millisecond)
	eng := backends[0].Engine()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// Twelve hops past the default 24-slot window, with twice the default
	// fault ratio: enough evidence that the ledger records transitions, so
	// every shared family has samples to compare.
	w, err := sim.BuildWorkload("parity", sim.Scenario{Seed: 7, Slots: 24 + 12*8, FaultyRatio: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if acked, err := mcs.SendReports(ctx, r.ingestAddr.String(), w.Reports); err != nil || acked != len(w.Reports) {
		t.Fatalf("streamed %d/%d, err %v", acked, len(w.Reports), err)
	}
	if err := r.fwd.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush("parity"); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		st := eng.Stats()
		if st.WindowsProcessed > 0 && st.QueueDepth == 0 &&
			st.WindowsClosed == st.WindowsEmpty+st.WindowsDropped+st.WindowsProcessed+st.WindowsFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine never drained: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	routerBase := "http://" + r.httpBound.String()
	backendBase := "http://" + backends[0].HTTPAddr()
	routerSamples := scrapeSamples(t, routerBase+"/metrics")
	backendSamples := scrapeSamples(t, backendBase+"/metrics")

	golden, err := os.ReadFile("testdata/metric_names.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(golden), "\n") {
		family, kind, _ := strings.Cut(line, " ")
		// The prober's health series exist only on the router.
		if !strings.HasPrefix(family, "itscs_cluster_") || strings.HasPrefix(family, "itscs_cluster_backend") {
			continue
		}
		names := []string{family}
		if kind == "histogram" {
			names = []string{family + "_bucket", family + "_sum", family + "_count"}
		}
		seen := 0
		for series, value := range routerSamples {
			name, _, _ := strings.Cut(series, "{")
			if !slices.Contains(names, name) {
				continue
			}
			seen++
			twin := "itscs_" + strings.TrimPrefix(series, "itscs_cluster_")
			if got, ok := backendSamples[twin]; !ok || got != value {
				t.Errorf("router %s = %s, backend %s = %q (present %v)", series, value, twin, got, ok)
			}
		}
		if seen == 0 {
			t.Errorf("router exported no %s sample", family)
		}
	}

	routerStatus, backendStatus := statusSections(t, routerBase+"/status"), statusSections(t, backendBase+"/status")
	if !reflect.DeepEqual(routerStatus.Engine, backendStatus.Engine) {
		t.Errorf("/status engine differs:\nrouter  %v\nbackend %v", routerStatus.Engine, backendStatus.Engine)
	}
	byFleet, _ := routerStatus.Freshness["by_fleet"].(map[string]any)
	for _, entry := range byFleet {
		delete(entry.(map[string]any), "owner")
	}
	if !reflect.DeepEqual(routerStatus.Freshness, backendStatus.Freshness) {
		t.Errorf("/status freshness differs:\nrouter  %v\nbackend %v", routerStatus.Freshness, backendStatus.Freshness)
	}
}

// scrapeSamples maps each `name{labels}` sample of a Prometheus exposition
// to its rendered value.
func scrapeSamples(t *testing.T, url string) map[string]string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(string(body), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
			out[line[:i]] = line[i+1:]
		}
	}
	return out
}

// sharedStatus holds the /status objects both daemons build with the same
// node helpers.
type sharedStatus struct {
	Engine    map[string]any `json:"engine"`
	Freshness map[string]any `json:"freshness"`
}

func statusSections(t *testing.T, url string) sharedStatus {
	t.Helper()
	var st sharedStatus
	if status, err := getRouterJSON(url, &st); err != nil || status != http.StatusOK {
		t.Fatalf("%s: status %d err %v", url, status, err)
	}
	return st
}
