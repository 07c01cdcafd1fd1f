// Command parsecbench runs fleet benchmark scenarios and queries their
// artifacts. `parsecbench run` boots an N-shard parsecd fleet behind a
// parsecrouter — in-process (deterministic, no child processes) or as
// real local processes (-mode proc, the kill -9 mode `make
// bench-cluster` uses) — drives the scenario's phased load mix with its
// fault schedule, and writes BENCH_cluster.json in the shared benchjson
// schema with the columnar sample store embedded. `parsecbench query`
// answers post-hoc questions against a written artifact ("p99 by shard
// during the kill phase") without re-running anything. `parsecbench
// fromtest` converts `go test -bench` text on stdin into the same
// schema: the BENCH_scan.json report `make bench` writes.
//
// Usage:
//
//	parsecbench run -scenario scenarios/smoke.json -o BENCH_cluster.json
//	parsecbench run -scenario scenarios/zipf-kill.json -mode proc -bin .benchbin
//	parsecbench query -in BENCH_cluster.json -phase kill -p 0.99
//	go test -run '^$' -bench . -benchmem ./internal/maspar/ | parsecbench fromtest -o BENCH_scan.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/benchfleet"
	"repro/internal/benchjson"
	"repro/internal/router"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "parsecbench:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: parsecbench <run|query|fromtest> [flags]")
	}
	switch args[0] {
	case "run":
		return runScenario(args[1:], out)
	case "query":
		return runQuery(args[1:], out)
	case "fromtest":
		return runFromTest(args[1:], in, out)
	default:
		return fmt.Errorf("unknown subcommand %q (want run, query or fromtest)", args[0])
	}
}

func runScenario(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("parsecbench run", flag.ContinueOnError)
	var (
		scenPath = fs.String("scenario", "", "scenario JSON file (required)")
		mode     = fs.String("mode", "inproc", "fleet mode: inproc (httptest harness, deterministic) or proc (real local processes)")
		binDir   = fs.String("bin", ".benchbin", "directory with parsecd/parsecrouter binaries (-mode proc)")
		logDir   = fs.String("logdir", "", "directory for per-process logs (-mode proc; empty discards)")
		outPath  = fs.String("o", "BENCH_cluster.json", "output report path (- for stdout)")
		every    = fs.Duration("scrape-every", 250*time.Millisecond, "mid-phase /metrics scrape cadence (-mode proc; inproc scrapes only at phase boundaries)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scenPath == "" {
		return fmt.Errorf("-scenario is required")
	}
	data, err := os.ReadFile(*scenPath)
	if err != nil {
		return err
	}
	sc, err := benchfleet.DecodeScenario(data)
	if err != nil {
		return err
	}

	var (
		fleet benchfleet.Fleet
		opts  benchfleet.Options
	)
	switch *mode {
	case "inproc":
		f, err := benchfleet.NewHarnessFleet(sc, server.Config{}, router.Config{})
		if err != nil {
			return err
		}
		fleet = f
	case "proc":
		f, err := benchfleet.NewProcFleet(sc, benchfleet.ProcConfig{BinDir: *binDir, LogDir: *logDir})
		if err != nil {
			return err
		}
		fleet = f
		opts.ScrapeEvery = *every
	default:
		return fmt.Errorf("unknown -mode %q (want inproc or proc)", *mode)
	}
	defer fleet.Close() //nolint:errcheck

	started := time.Now()
	res, err := benchfleet.Run(context.Background(), fleet, sc, opts)
	if err != nil {
		return err
	}
	res.StartedAt = started
	rep, err := benchfleet.BuildReport(res)
	if err != nil {
		return err
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *outPath == "-" {
		_, err = out.Write(enc)
		return err
	}
	if err := os.WriteFile(*outPath, enc, 0o644); err != nil {
		return err
	}
	for _, pr := range res.Phases {
		fmt.Fprintf(out, "phase %-12s requests=%d lost=%d errors=%d p50=%.3fms p99=%.3fms %.0f req/s\n",
			pr.Name, pr.Requests, pr.Lost, pr.Errors,
			float64(pr.P50Ns)/1e6, float64(pr.P99Ns)/1e6, pr.ThroughputRPS)
	}
	fmt.Fprintf(out, "wrote %s (%d results, %s elapsed)\n", *outPath, len(rep.Results), time.Since(started).Round(time.Millisecond))
	return nil
}

func runQuery(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("parsecbench query", flag.ContinueOnError)
	var (
		inPath = fs.String("in", "BENCH_cluster.json", "report artifact to query")
		phase  = fs.String("phase", "", "restrict to one scenario phase (empty: whole run)")
		shard  = fs.String("shard", "", "restrict to one shard (empty: all)")
		p      = fs.Float64("p", 0.99, "latency quantile to report (0 < p <= 1)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *p <= 0 || *p > 1 {
		return fmt.Errorf("-p must be in (0, 1]")
	}
	data, err := os.ReadFile(*inPath)
	if err != nil {
		return err
	}
	_, st, err := benchfleet.LoadReport(data)
	if err != nil {
		return err
	}
	if st == nil {
		return fmt.Errorf("%s carries no samples payload; re-run the scenario with parsecbench run", *inPath)
	}
	_, err = io.WriteString(out, st.DescribeQuery(benchfleet.Query{Phase: *phase, Shard: *shard}, *p))
	return err
}

// runFromTest converts `go test -bench` output read from in into a
// benchjson report, written to -o or to out. It keeps ns/op, B/op,
// allocs/op and every custom metric the benchmarks report (simulated
// cycles/op, sents/s, p50/p99-ns/op, stage attribution).
func runFromTest(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("parsecbench fromtest", flag.ContinueOnError)
	outPath := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rep, err := benchjson.Parse(in)
	if err != nil {
		return err
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *outPath == "" {
		_, err = out.Write(enc)
		return err
	}
	return os.WriteFile(*outPath, enc, 0o644)
}
