// Command parsecload drives a running parsecd with concurrent
// mixed-grammar traffic and reports client-side throughput and latency
// percentiles plus the server's batching and result-cache behaviour
// scraped from /metrics. The request mix and the closed loop are
// internal/loadgen's, the same the fleet benchmark sends.
//
// Usage:
//
//	parsecload -url http://127.0.0.1:8723 -c 16 -n 500 -grammars demo,english
//	parsecload -url http://127.0.0.1:8723 -zipf 1.2 -zipf-pool 32
//	parsecload -url http://127.0.0.1:8723 -ramp -ramp-target 25ms
//	parsecload -url http://127.0.0.1:8723 -lattice -lattice-slots 5 -lattice-alts 3
//	parsecload -url http://127.0.0.1:8723 -smoke
//	parsecload -url http://127.0.0.1:8723 -json      # machine-readable summary on stdout
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/benchjson"
	"repro/internal/loadgen"
	"repro/internal/prom"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "parsecload:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("parsecload", flag.ContinueOnError)
	var (
		url     = fs.String("url", "http://127.0.0.1:8723", "base URL of the parsecd to drive")
		conc    = fs.Int("c", 8, "concurrent client connections (ramp mode: starting concurrency)")
		total   = fs.Int("n", 200, "total requests to send (ramp mode: per step)")
		grams   = fs.String("grammars", "demo,english", "comma-separated grammar mix")
		backend = fs.String("backend", "maspar", "backend for every request")
		maxLen  = fs.Int("max-len", 9, "max sentence length to generate")
		timeout = fs.Int("timeout-ms", 0, "per-request timeout_ms (0: server default)")
		seed    = fs.Int64("seed", 1, "sentence-mix random seed (0: derive from the clock)")
		smoke   = fs.Bool("smoke", false, "tiny fixed run (c=4 n=32) used by the tier-1 smoke test")
		jsonOut = fs.Bool("json", false, "emit the final summary as one JSON object (benchjson.LoadSummary) on stdout instead of human-format text")
		hist    = fs.Bool("hist", false, "print the client-side latency histogram (Prometheus text, same buckets as the server)")
		noCache = fs.Bool("no-cache", false, "set no_cache on every request, bypassing the server's result cache")
		zipfS   = fs.Float64("zipf", 0, "skewed-reuse mode: draw each request from a fixed sentence pool with Zipf skew s (must be >1; 0: every request is freshly generated)")
		zipfN   = fs.Int("zipf-pool", 64, "distinct sentences in the -zipf pool")
		ramp    = fs.Bool("ramp", false, "closed-loop mode: step concurrency up (doubling from -c) until p50 exceeds -ramp-target")
		rampLat = fs.Duration("ramp-target", 50*time.Millisecond, "p50 latency budget the ramp must stay inside")
		rampMax = fs.Int("ramp-steps", 8, "max ramp steps")
		latt    = fs.Bool("lattice", false, "drive /v1/lattice with English word-lattice decodes instead of /v1/parse")
		lattSl  = fs.Int("lattice-slots", 5, "slots per generated lattice (-lattice mode)")
		lattAl  = fs.Int("lattice-alts", 3, "alternatives per slot (-lattice mode)")
		lattUt  = fs.Int("lattice-utterances", 16, "distinct utterance ids in the pool; repeats of one utterance reuse its shard's prefix snapshots (-lattice mode)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *smoke {
		*conc, *total = 4, 32
	}
	if *zipfS != 0 && *zipfS <= 1 {
		return fmt.Errorf("-zipf skew must be > 1 (got %g)", *zipfS)
	}
	if *zipfN < 1 {
		return fmt.Errorf("-zipf-pool must be >= 1 (got %d)", *zipfN)
	}
	if *latt {
		if *lattSl < 3 {
			return fmt.Errorf("-lattice-slots must be >= 3 (got %d)", *lattSl)
		}
		if *lattAl < 1 || *lattUt < 1 {
			return fmt.Errorf("-lattice-alts and -lattice-utterances must be >= 1")
		}
	}
	names := strings.Split(*grams, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}

	// Pre-generate the request mix so the hot loop only does HTTP.
	// The seed is always echoed in the report so any run — including
	// the tier-1 smoke test — can be replayed exactly.
	if *seed == 0 {
		*seed = time.Now().UnixNano()
	}
	mix := loadgen.Mix{
		Grammars: names, Backend: *backend, MaxLen: *maxLen,
		ZipfS: *zipfS, ZipfPool: *zipfN,
		Lattice: *latt, LatticeSlots: *lattSl, LatticeAlts: *lattAl, LatticeUtterances: *lattUt,
		TimeoutMS: *timeout, NoCache: *noCache,
	}
	reqs, err := mix.Bodies(*total, *seed)
	if err != nil {
		return err
	}
	endpoint := *url + mix.Endpoint()

	ctx := context.Background()
	client := &http.Client{Timeout: 2 * time.Minute}
	mode := "parse"
	if *latt {
		mode = "lattice"
	}
	sum := &benchjson.LoadSummary{Mode: mode, URL: *url, Seed: *seed}
	if !*jsonOut {
		if *latt {
			fmt.Fprintf(out, "parsecload: url=%s lattice mode (english, %d slots x %d alts, %d utterances) seed=%d\n",
				*url, *lattSl, *lattAl, *lattUt, *seed)
		} else {
			fmt.Fprintf(out, "parsecload: url=%s grammars=%s backend=%s seed=%d\n", *url, *grams, *backend, *seed)
		}
		if *zipfS > 0 {
			fmt.Fprintf(out, "request mix: zipf s=%g over %d distinct sentences\n", *zipfS, *zipfN)
		}
	}

	if *ramp {
		return runRamp(ctx, out, client, endpoint, reqs, *conc, *rampLat, *rampMax, *url, sum, *jsonOut)
	}

	// Client-observed latency, bucketed exactly like the server's
	// parsecd_parse_latency_seconds so the two histograms line up when
	// compared side by side (the gap between them is queueing + HTTP).
	latHist := prom.NewHistogram(prom.LatencyBuckets()...)
	res := runLoad(ctx, client, endpoint, reqs, *conc, latHist)

	if *jsonOut {
		res.fillSummary(sum, *total)
		sum.Server = serverSideFrom(ctx, client, *url)
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(sum)
	}

	fmt.Fprintf(out, "requests=%d errors=%d sheds=%d elapsed=%v throughput=%.1f req/s\n",
		*total, res.errs, res.sheds, res.elapsed.Round(time.Millisecond), res.throughput())
	for _, c := range res.codes() {
		fmt.Fprintf(out, "  status %d: %d\n", c, res.byStatus[c])
	}
	for _, s := range res.shards() {
		fmt.Fprintf(out, "  shard %s: %d\n", s, res.byShard[s])
	}
	fmt.Fprintf(out, "latency p50=%v p90=%v p99=%v max=%v\n",
		res.pct(0.50).Round(time.Microsecond), res.pct(0.90).Round(time.Microsecond),
		res.pct(0.99).Round(time.Microsecond), res.pct(1.0).Round(time.Microsecond))

	printServerSide(ctx, out, client, *url)
	if *hist {
		p := prom.NewWriter(out)
		p.Histogram("parsecload_request_latency_seconds", "client-observed end-to-end request latency", latHist)
		if shards := res.shards(); len(shards) > 0 {
			p.Header("parsecload_shard_requests_total", "requests attributed to each serving shard (X-Parsec-Shard)", "counter")
			for _, s := range shards {
				p.Uint("parsecload_shard_requests_total", uint64(res.byShard[s]), "shard", s)
			}
		}
	}
	return nil
}

// loadResult is one load run's client-side accounting.
type loadResult struct {
	elapsed  time.Duration
	lats     []time.Duration // sorted
	byStatus map[int]int
	byShard  map[string]int // keyed by X-Parsec-Shard; empty when unsharded
	errs     int
	sheds    int           // 429 responses (admission control / queue full)
	backoff  time.Duration // total worker time spent honoring Retry-After
}

func (r *loadResult) throughput() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(len(r.lats)) / r.elapsed.Seconds()
}

func (r *loadResult) pct(p float64) time.Duration { return loadgen.Quantile(r.lats, p) }

func (r *loadResult) codes() []int {
	var codes []int
	for c := range r.byStatus {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	return codes
}

func (r *loadResult) shards() []string {
	var names []string
	for s := range r.byShard {
		names = append(names, s)
	}
	sort.Strings(names)
	return names
}

// runLoad fires every request in reqs at the given concurrency against
// endpoint (a full URL including path) and collects latencies. latHist
// may be nil.
func runLoad(ctx context.Context, client *http.Client, endpoint string, reqs [][]byte, conc int, latHist *prom.Histogram) *loadResult {
	res := &loadResult{byStatus: map[int]int{}, byShard: map[string]int{}}
	res.elapsed = loadgen.Drive(ctx, client, endpoint, reqs, conc, func(o loadgen.Outcome) {
		if o.Err != nil {
			res.errs++
			return
		}
		res.byStatus[o.Status]++
		if o.Status == http.StatusTooManyRequests {
			res.sheds++
		}
		if o.Shard != "" {
			res.byShard[o.Shard]++
		}
		res.lats = append(res.lats, o.Latency)
		if latHist != nil {
			latHist.Observe(o.Latency.Seconds())
		}
		res.backoff += o.Backoff
	})
	sort.Slice(res.lats, func(i, j int) bool { return res.lats[i] < res.lats[j] })
	return res
}

// runRamp is the closed-loop mode: run the full request mix at
// doubling concurrency until p50 exceeds the latency budget, and
// report the highest step that stayed inside it. endpoint is the full
// request URL; base is the server root for the /metrics scrape. With
// jsonOut the step record lands in sum.Ramp and the summary is the
// only stdout output.
func runRamp(ctx context.Context, out io.Writer, client *http.Client, endpoint string, reqs [][]byte, startConc int, target time.Duration, maxSteps int, base string, sum *benchjson.LoadSummary, jsonOut bool) error {
	if !jsonOut {
		fmt.Fprintf(out, "ramp: target p50=%v, %d requests/step, up to %d steps\n", target, len(reqs), maxSteps)
	}
	rampSum := &benchjson.LoadRamp{TargetP50Ns: target.Nanoseconds()}
	bestConc, bestThroughput := 0, 0.0
	c := startConc
	for step := 1; step <= maxSteps; step++ {
		res := runLoad(ctx, client, endpoint, reqs, c, nil)
		p50 := res.pct(0.50)
		// A shed step is over budget by definition: the fleet refused
		// load, so there is no point doubling concurrency into it. The
		// workers already honored the Retry-After hints inside the step.
		ok := p50 <= target && res.errs == 0 && res.sheds == 0
		rampSum.Steps = append(rampSum.Steps, benchjson.LoadRampStep{
			Concurrency:   c,
			ThroughputRPS: res.throughput(),
			P50Ns:         p50.Nanoseconds(),
			P90Ns:         res.pct(0.90).Nanoseconds(),
			Errors:        res.errs,
			Sheds:         res.sheds,
			BackoffNs:     res.backoff.Nanoseconds(),
			WithinBudget:  ok,
		})
		if !jsonOut {
			verdict := "ok"
			if !ok {
				verdict = "over budget"
			}
			fmt.Fprintf(out, "  step %d: c=%d throughput=%.1f req/s p50=%v p90=%v errors=%d sheds=%d backoff=%v [%s]\n",
				step, c, res.throughput(), p50.Round(time.Microsecond),
				res.pct(0.90).Round(time.Microsecond), res.errs, res.sheds,
				res.backoff.Round(time.Millisecond), verdict)
		}
		if !ok {
			break
		}
		bestConc, bestThroughput = c, res.throughput()
		c *= 2
	}
	rampSum.BestConc, rampSum.BestThroughput = bestConc, bestThroughput
	if jsonOut {
		sum.Ramp = rampSum
		sum.Server = serverSideFrom(ctx, client, base)
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(sum)
	}
	if bestConc == 0 {
		fmt.Fprintf(out, "ramp result: no step met the p50 budget %v\n", target)
	} else {
		fmt.Fprintf(out, "ramp result: max sustainable c=%d at %.1f req/s within p50 %v\n",
			bestConc, bestThroughput, target)
	}
	printServerSide(ctx, out, client, base)
	return nil
}

// fillSummary copies one load run's client-side accounting into the
// machine-readable summary. total is the attempted request count
// (res.lats only counts requests that got an HTTP response).
func (r *loadResult) fillSummary(sum *benchjson.LoadSummary, total int) {
	sum.Requests = total
	sum.Errors = r.errs
	sum.Sheds = r.sheds
	sum.ElapsedNs = r.elapsed.Nanoseconds()
	sum.ThroughputRPS = r.throughput()
	sum.BackoffNs = r.backoff.Nanoseconds()
	sum.Latency = benchjson.LoadQuantiles{
		P50: r.pct(0.50).Nanoseconds(),
		P90: r.pct(0.90).Nanoseconds(),
		P99: r.pct(0.99).Nanoseconds(),
		Max: r.pct(1.0).Nanoseconds(),
	}
	if len(r.byStatus) > 0 {
		sum.ByStatus = make(map[string]int, len(r.byStatus))
		for code, n := range r.byStatus {
			sum.ByStatus[strconv.Itoa(code)] = n
		}
	}
	if len(r.byShard) > 0 {
		sum.ByShard = make(map[string]int, len(r.byShard))
		for shard, n := range r.byShard {
			sum.ByShard[shard] = n
		}
	}
}

// serverSideFrom scrapes the target's /metrics into the summary's
// server section: batching, result-cache, lattice and router hot-path
// counters. It is nil when the scrape fails — a transport error, a
// non-200 answer, or a body that cannot be read in full — or reports
// nothing.
func serverSideFrom(ctx context.Context, client *http.Client, base string) *benchjson.LoadServerSide {
	fams, err := loadgen.Scrape(ctx, client, base)
	if err != nil {
		return nil
	}
	count := func(name string) uint64 { return uint64(prom.Sum(fams, name)) }
	ss := &benchjson.LoadServerSide{
		Batches:          count("parsecd_batch_size_count"),
		CacheHits:        count("parsecd_result_cache_hits_total"),
		CacheMisses:      count("parsecd_result_cache_misses_total"),
		LatticeRequests:  count("parsecd_lattice_requests_total"),
		LatticePaths:     count("parsecd_lattice_paths_expanded_total"),
		PrefixHits:       count("parsecd_lattice_prefix_cache_hits_total"),
		PrefixMisses:     count("parsecd_lattice_prefix_cache_misses_total"),
		HotKeyPromotions: count("parsecrouter_hotkey_promotions_total"),
		HotKeyDemotions:  count("parsecrouter_hotkey_demotions_total"),
		Hedges:           count("parsecrouter_hedges_total"),
		HedgeWins:        count("parsecrouter_hedge_wins_total"),
		// Labeled by class; both series add into one client-facing number.
		Sheds: count("parsecrouter_sheds_total"),
	}
	if ss.Batches > 0 {
		ss.MeanBatchSize = prom.Sum(fams, "parsecd_batch_size_sum") / float64(ss.Batches)
	}
	if *ss == (benchjson.LoadServerSide{}) {
		return nil
	}
	return ss
}

// printServerSide reports the server's batching and result-cache
// behaviour for this run, scraped from /metrics.
func printServerSide(ctx context.Context, out io.Writer, client *http.Client, url string) {
	ss := serverSideFrom(ctx, client, url)
	if ss == nil {
		return
	}
	if ss.Batches > 0 {
		fmt.Fprintf(out, "server batching: batches=%d mean-batch-size=%.2f\n", ss.Batches, ss.MeanBatchSize)
	}
	if lookups := ss.CacheHits + ss.CacheMisses; lookups > 0 {
		fmt.Fprintf(out, "server result cache: hits=%d misses=%d hit-rate=%.1f%%\n",
			ss.CacheHits, ss.CacheMisses, 100*float64(ss.CacheHits)/float64(lookups))
	}
	if ss.LatticeRequests > 0 {
		fmt.Fprintf(out, "server lattice: requests=%d paths=%d\n", ss.LatticeRequests, ss.LatticePaths)
	}
	if lookups := ss.PrefixHits + ss.PrefixMisses; lookups > 0 {
		fmt.Fprintf(out, "server prefix cache: hits=%d misses=%d hit-rate=%.1f%%\n",
			ss.PrefixHits, ss.PrefixMisses, 100*float64(ss.PrefixHits)/float64(lookups))
	}
	if ss.HotKeyPromotions+ss.Hedges+ss.Sheds > 0 {
		fmt.Fprintf(out, "router hot path: hotkey promotions=%d demotions=%d hedges=%d (wins=%d) sheds=%d\n",
			ss.HotKeyPromotions, ss.HotKeyDemotions, ss.Hedges, ss.HedgeWins, ss.Sheds)
	}
}
