package clustertest

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/router"
	"repro/internal/server"
)

// The golden tests pin the full /metrics exposition of one parsecd
// shard and of a 2-shard router after a fixed request sequence: every
// HELP/TYPE line and series name byte for byte, and every value that
// does not depend on wall-clock timing or on what else ran in the
// process. goldenMasked lists the exceptions.

// goldenMasked names the series whose values are replaced by <masked>:
// uptimes, the latency histograms' sums and finite buckets (wall-clock
// timing; the +Inf bucket and _count stay exact), and the process-global
// PE-layout and constraint-compile caches, which other tests in the
// binary warm.
var goldenMasked = map[string]bool{
	"parsecd_uptime_seconds":               true,
	"parsecd_uptime_seconds" + "_max":      true,
	"parsecrouter_uptime_seconds":          true,
	"parsecd_queue_wait_seconds_sum":       true,
	"parsecd_queue_wait_seconds_bucket":    true,
	"parsecd_parse_latency_seconds_sum":    true,
	"parsecd_parse_latency_seconds_bucket": true,
	"parsecd_layout_cache_hits_total":      true,
	"parsecd_layout_cache_misses_total":    true,
	"parsecd_eval_compile_hits_total":      true,
	"parsecd_eval_compile_misses_total":    true,
	"parsecd_eval_compiled_total":          true,
}

// normalizeExposition masks the values of goldenMasked series.
func normalizeExposition(body string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(body, "\n") {
		sp := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || sp < 0 {
			b.WriteString(line)
			continue
		}
		name, labels, _ := strings.Cut(line[:sp], "{")
		if goldenMasked[name] && !strings.Contains(labels, `le="+Inf"`) {
			line = line[:sp] + " <masked>\n"
		}
		b.WriteString(line)
	}
	return b.String()
}

// goldenTraffic is the fixed, strictly sequential request sequence the
// goldens are taken after. Sequential requests never share a batch
// window, so batching counters are deterministic too.
func goldenTraffic(t *testing.T, base string) {
	t.Helper()
	send := func(method, path string, body any) {
		t.Helper()
		var rd io.Reader
		if body != nil {
			data, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(data)
		}
		req, err := http.NewRequest(method, base+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}
	sents := sentences(6)
	for _, s := range sents {
		send(http.MethodPost, "/v1/parse", serialReq(s))
	}
	send(http.MethodPost, "/v1/parse", serialReq(sents[2])) // result-cache hit
	send(http.MethodPost, "/v1/parse", server.ParseRequest{Backend: "maspar", Text: "the program runs", MaxParses: 1})
	send(http.MethodPost, "/v1/parse", server.ParseRequest{Grammar: "no-such-grammar", Backend: "serial", Text: "x"})
	send(http.MethodPost, "/v1/batch", server.BatchRequest{Requests: []server.ParseRequest{serialReq(sentences(8)[7])}})
	send(http.MethodPost, "/v1/lattice", latticeReq("golden-utt"))
	send(http.MethodGet, "/v1/grammars", nil)
	send(http.MethodGet, "/healthz", nil)
}

// checkGolden compares the normalized /metrics body of base with
// testdata/<name>.
func checkGolden(t *testing.T, base, name string) {
	t.Helper()
	_, body := Get(t, base+"/metrics")
	got := normalizeExposition(body)
	want, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("testdata/%s: first difference at line %d:\n got: %q\nwant: %q\nfull exposition:\n%s", name, i+1, g, w, got)
		}
	}
}

func TestShardMetricsGolden(t *testing.T) {
	s := server.New(server.Config{ShardName: "shard0"})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background()) //nolint:errcheck // teardown
	})
	goldenTraffic(t, ts.URL)
	checkGolden(t, ts.URL, "shard_metrics.golden")
}

func TestRouterMetricsGolden(t *testing.T) {
	c := New(t, 2, server.Config{}, router.Config{})
	goldenTraffic(t, c.URL)
	checkGolden(t, c.URL, "router_metrics.golden")
}
