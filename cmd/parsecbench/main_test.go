package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchfleet"
	"repro/internal/benchjson"
)

// TestRunInprocWritesValidReport drives the CLI end to end in the
// in-process mode: run the checked-in smoke scenario (2 shards, a kill
// phase, a revive), then query the artifact it wrote.
func TestRunInprocWritesValidReport(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_cluster.json")
	var buf bytes.Buffer
	err := run([]string{"run", "-scenario", "../../scenarios/smoke.json", "-mode", "inproc", "-o", out}, nil, &buf)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	rep, st, err := benchfleet.LoadReport(data)
	if err != nil {
		t.Fatalf("artifact does not validate: %v", err)
	}
	if err := benchjson.Validate(rep); err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatal("artifact has no samples payload")
	}
	// The kill-phase per-shard series is non-empty for the survivor.
	if v, ok := st.Quantile(benchfleet.Query{Phase: "kill", Shard: "shard0"}, 0.99); !ok || v <= 0 {
		t.Fatalf("survivor kill-phase p99 = %d,%v want > 0", v, ok)
	}

	// Query subcommand reads the artifact back.
	buf.Reset()
	if err := run([]string{"query", "-in", out, "-phase", "kill", "-p", "0.99"}, nil, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "shard shard0:") {
		t.Fatalf("query output missing per-shard lines:\n%s", buf.String())
	}
}

func TestRunUsageErrors(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range [][]string{
		{},
		{"frobnicate"},
		{"run"},
		{"run", "-scenario", "no-such-file.json"},
		{"query", "-in", "no-such-file.json"},
		{"query", "-in", "x", "-p", "1.5"},
		{"fromtest"}, // empty stdin holds no benchmark lines
	} {
		if err := run(args, strings.NewReader(""), &buf); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

// TestFromTestUsesSharedParser converts `go test -bench` text through
// the subcommand, which must go through the shared internal/benchjson
// parser (a build break or a shape change here means the extraction
// regressed).
func TestFromTestUsesSharedParser(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"fromtest"}, strings.NewReader("BenchmarkX-8 10 5.0 ns/op 1 B/op 1 allocs/op\n"), &buf); err != nil {
		t.Fatal(err)
	}
	var rep benchjson.Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("decode %s: %v", buf.String(), err)
	}
	if len(rep.Results) != 1 || rep.Results[0].Name != "BenchmarkX" {
		t.Fatalf("unexpected report: %+v", rep)
	}

	out := filepath.Join(t.TempDir(), "BENCH_scan.json")
	if err := run([]string{"fromtest", "-o", out}, strings.NewReader("BenchmarkX-8 10 5.0 ns/op\n"), &buf); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(out); err != nil || !bytes.Contains(data, []byte(`"BenchmarkX"`)) {
		t.Fatalf("-o file: %s, %v", data, err)
	}
}

// TestProcFleetSmoke is the real-process smoke: a 2-shard fleet plus
// router as actual child processes, a kill -9 mid-scenario, and a
// schema-valid BENCH_cluster.json at the end. Gated behind
// PARSECBENCH_PROC=1 because it needs prebuilt binaries
// (PARSECBENCH_BIN, default .benchbin at the repo root) — `make
// bench-cluster-smoke` builds them and runs this.
func TestProcFleetSmoke(t *testing.T) {
	if os.Getenv("PARSECBENCH_PROC") != "1" {
		t.Skip("real-process smoke runs only under make bench-cluster-smoke (PARSECBENCH_PROC=1)")
	}
	bin := os.Getenv("PARSECBENCH_BIN")
	if bin == "" {
		bin = "../../.benchbin"
	}
	abs, err := filepath.Abs(bin)
	if err != nil {
		t.Fatal(err)
	}
	out := os.Getenv("PARSECBENCH_OUT")
	if out == "" {
		out = filepath.Join(t.TempDir(), "BENCH_cluster.json")
	}

	var buf bytes.Buffer
	err = run([]string{
		"run",
		"-scenario", "../../scenarios/smoke.json",
		"-mode", "proc",
		"-bin", abs,
		"-logdir", t.TempDir(),
		"-scrape-every", "100ms",
		"-o", out,
	}, nil, &buf)
	if err != nil {
		t.Fatalf("proc run: %v\n%s", err, buf.String())
	}
	t.Logf("proc run output:\n%s", buf.String())

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	rep, st, err := benchfleet.LoadReport(data)
	if err != nil {
		t.Fatalf("artifact does not validate: %v", err)
	}
	if st == nil {
		t.Fatal("artifact has no samples payload")
	}
	names := map[string]benchjson.Result{}
	for _, r := range rep.Results {
		names[r.Name] = r
	}
	if row, ok := names["Fleet/smoke/total"]; !ok || row.Iterations != 140 {
		t.Fatalf("total row = %+v,%v want 140 iterations", row, ok)
	}
	// Per-shard p99 comes from per-request records, as in-process: the
	// survivor answered the kill phase and the killed shard1 answered
	// none of it...
	warm := benchfleet.Query{Phase: "warm"}
	kill := benchfleet.Query{Phase: "kill"}
	byShard := st.QuantileByShard("kill", 0.99)
	if v, ok := byShard["shard0"]; !ok || v <= 0 {
		t.Fatalf("shard0 kill-phase p99 = %d,%v want > 0 (byShard=%v)", v, ok, byShard)
	}
	if _, ok := byShard["shard1"]; ok {
		t.Fatalf("killed shard1 answered requests during the kill phase: %v", byShard)
	}
	// ...and the zipf warm phase produced result-cache hits.
	if hr, ok := st.HitRate("shard0", warm); !ok || hr <= 0 {
		t.Fatalf("shard0 warm hit rate = %g,%v want > 0", hr, ok)
	}
	// The kill was real: shard1 contributed no samples to the kill
	// phase's closing scrape, and the router ejected it.
	if d, ok := st.Delta("parsecrouter_shard_ejections_total", benchfleet.RouterSource, kill); !ok || d < 1 {
		t.Fatalf("ejections during kill = %g,%v want >= 1", d, ok)
	}
}
