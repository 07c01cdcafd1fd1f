package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/benchfleet"
	"repro/internal/benchjson"
)

// stubFleet points benchfleet.Run at a single stub endpoint: faults
// and probes are no-ops, so only the load the phases send reaches it.
type stubFleet struct{ url string }

func (f stubFleet) RouterURL() string                 { return f.url }
func (f stubFleet) ShardNames() []string              { return []string{"shard0"} }
func (f stubFleet) ShardURL(int) string               { return f.url }
func (f stubFleet) ApplyFault(benchfleet.Fault) error { return nil }
func (f stubFleet) AdvanceProbes(int)                 {}
func (f stubFleet) Client() *http.Client              { return &http.Client{} }
func (f stubFleet) Close() error                      { return nil }

// bodyRecorder is an httptest handler that answers every POST with 200
// and keeps "<path> <body>" for each, in arrival order.
type bodyRecorder struct {
	mu   sync.Mutex
	seen []string
}

func (r *bodyRecorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.NotFound(w, req)
		return
	}
	body, _ := io.ReadAll(req.Body)
	r.mu.Lock()
	r.seen = append(r.seen, req.URL.Path+" "+string(body))
	r.mu.Unlock()
	w.Write([]byte("{}")) //nolint:errcheck
}

// take returns the requests recorded so far, in arrival order, and
// forgets them.
func (r *bodyRecorder) take() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.seen
	r.seen = nil
	return out
}

// parsecloadArgs are the parsecload flags equivalent to scenario phase
// pi: the same mix, request count and seed.
func parsecloadArgs(url string, sc *benchfleet.Scenario, pi int) []string {
	p := sc.Phases[pi]
	grammars, maxLen := strings.Join(p.Grammars, ","), p.MaxLen
	if grammars == "" {
		grammars = "demo"
	}
	if maxLen == 0 {
		maxLen = 7
	}
	seed := sc.Seed
	if seed == 0 {
		seed = 1
	}
	args := []string{
		"-url", url, "-json",
		"-n", strconv.Itoa(p.Requests),
		"-c", strconv.Itoa(p.Concurrency),
		"-seed", strconv.FormatInt(seed+int64(pi), 10),
		"-backend", sc.BackendOrDefault(),
		"-grammars", grammars,
		"-max-len", strconv.Itoa(maxLen),
	}
	switch p.Mix {
	case "zipf":
		args = append(args, "-zipf", strconv.FormatFloat(p.ZipfS, 'g', -1, 64),
			"-zipf-pool", strconv.Itoa(p.ZipfPool))
	case "lattice":
		args = append(args, "-lattice", "-lattice-slots", "5", "-lattice-alts", "3", "-lattice-utterances", "8")
	}
	return args
}

func loadScenario(t *testing.T, path string) *benchfleet.Scenario {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := benchfleet.DecodeScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestParsecloadSendsFleetBodies: for every phase of the checked-in
// scenarios, parsecload run with the equivalent flags sends exactly the
// requests the fleet benchmark sends for that phase, so a scenario
// measures the same traffic in-process and against real processes.
func TestParsecloadSendsFleetBodies(t *testing.T) {
	for _, path := range []string{"../../scenarios/smoke.json", "../../scenarios/zipf-kill.json"} {
		sc := loadScenario(t, path)
		rec := &bodyRecorder{}
		ts := httptest.NewServer(rec)

		if _, err := benchfleet.Run(context.Background(), stubFleet{ts.URL}, sc, benchfleet.Options{}); err != nil {
			t.Fatal(err)
		}
		fleetSent := rec.take()
		for pi, p := range sc.Phases {
			var out bytes.Buffer
			if err := run(parsecloadArgs(ts.URL, sc, pi), &out); err != nil {
				t.Fatalf("%s phase %s: %v", sc.Name, p.Name, err)
			}
			// The fleet ran its phases one after another, so this phase's
			// requests are the next p.Requests it sent. Concurrent workers
			// reorder arrivals within a phase; compare them sorted.
			got := rec.take()
			fleetPhase := fleetSent[:p.Requests]
			fleetSent = fleetSent[p.Requests:]
			sort.Strings(got)
			sort.Strings(fleetPhase)
			t.Run(sc.Name+"/"+p.Name, func(t *testing.T) {
				if len(got) != p.Requests {
					t.Fatalf("parsecload sent %d requests, want %d", len(got), p.Requests)
				}
				same := 0
				for i := range got {
					if got[i] == fleetPhase[i] {
						same++
					}
				}
				if same != len(got) {
					t.Errorf("%d of %d requests differ; first parsecload %q, fleet %q",
						len(got)-same, len(got), got[0], fleetPhase[0])
				}
			})
		}
		ts.Close()
	}
}

// retryOnce answers the first POST with 429 and Retry-After: 1, every
// later one with 200.
func retryOnce() *httptest.Server {
	var n atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.NotFound(w, r)
			return
		}
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		if n.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte("{}")) //nolint:errcheck
	}))
}

// TestRetryAfterBacksOff: a 429 with Retry-After: 1 makes the closed
// loop pause at least a second before it sends again, and the run
// still answers every request — in parsecload and in a fleet phase.
func TestRetryAfterBacksOff(t *testing.T) {
	const n = 4
	t.Run("parsecload", func(t *testing.T) {
		ts := retryOnce()
		defer ts.Close()
		var out bytes.Buffer
		if err := run([]string{"-url", ts.URL, "-json", "-backend", "serial", "-n", strconv.Itoa(n), "-c", "1"}, &out); err != nil {
			t.Fatal(err)
		}
		var sum benchjson.LoadSummary
		if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
			t.Fatalf("decode: %v\n%s", err, out.String())
		}
		if sum.Errors != 0 || sum.ByStatus["429"] != 1 || sum.ByStatus["200"] != n-1 {
			t.Errorf("statuses = %v errors=%d, want one 429 then %d 200s", sum.ByStatus, sum.Errors, n-1)
		}
		if sum.BackoffNs < int64(time.Second) || sum.ElapsedNs < int64(time.Second) {
			t.Errorf("backoff=%v elapsed=%v, want both >= 1s", time.Duration(sum.BackoffNs), time.Duration(sum.ElapsedNs))
		}
	})
	t.Run("fleet", func(t *testing.T) {
		ts := retryOnce()
		defer ts.Close()
		sc := &benchfleet.Scenario{Name: "retry", Shards: 1, Phases: []benchfleet.Phase{
			{Name: "p", Requests: n, Concurrency: 1, Mix: "uniform"},
		}}
		res, err := benchfleet.Run(context.Background(), stubFleet{ts.URL}, sc, benchfleet.Options{})
		if err != nil {
			t.Fatal(err)
		}
		pr := res.Phases[0]
		if pr.Errors != 0 || pr.ByStatus[429] != 1 || pr.ByStatus[200] != n-1 {
			t.Errorf("statuses = %v errors=%d, want one 429 then %d 200s", pr.ByStatus, pr.Errors, n-1)
		}
		if pr.ElapsedNs < int64(time.Second) {
			t.Errorf("elapsed = %v, want >= 1s of Retry-After backoff", time.Duration(pr.ElapsedNs))
		}
	})
}
