package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/server"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics keeps insertion order for the human-readable lines.
type metrics struct {
	names  []string
	values map[string]metric
	notes  map[string]string
}

func newMetrics() *metrics {
	return &metrics{values: make(map[string]metric), notes: make(map[string]string)}
}

func (m *metrics) set(name string, v float64, unit, note string) {
	if _, ok := m.values[name]; !ok {
		m.names = append(m.names, name)
	}
	m.values[name] = metric{v, unit}
	m.notes[name] = note
}

// answer is one request's decoded outcome.
type answer struct {
	sample
	results []server.ParseResult // one per sentence; nil when not answered
}

// ok reports whether the request was answered 200 and, for a batch,
// every member was parsed.
func (a answer) ok() bool {
	if a.status != http.StatusOK || len(a.results) != len(a.req.sents) {
		return false
	}
	for _, r := range a.results {
		if r.Error != "" || r.TimedOut {
			return false
		}
	}
	return true
}

// decode parses every distinct response body once.
func decode(ss []sample) ([]answer, error) {
	cache := make(map[*byte][]server.ParseResult)
	out := make([]answer, len(ss))
	for i, s := range ss {
		out[i].sample = s
		if s.status != http.StatusOK || len(s.body) == 0 {
			continue
		}
		rs, ok := cache[&s.body[0]]
		if !ok {
			if s.req.path == "/v1/batch" {
				var br server.BatchResult
				if err := json.Unmarshal(s.body, &br); err != nil {
					return nil, fmt.Errorf("decode batch answer: %w", err)
				}
				rs = br.Results
			} else {
				var r server.ParseResult
				if err := json.Unmarshal(s.body, &r); err != nil {
					return nil, fmt.Errorf("decode parse answer: %w", err)
				}
				rs = []server.ParseResult{r}
			}
			cache[&s.body[0]] = rs
		}
		out[i].results = rs
	}
	return out, nil
}

// checkItem is one distinct answered (request, answer) pair.
type checkItem struct {
	req     *request
	results []server.ParseResult
}

// checkItems returns the distinct answered (request, answer) pairs: a
// hot key's cached answers are byte-identical and are checked once.
func checkItems(as []answer) []checkItem {
	type key struct {
		req  *request
		body *byte
	}
	done := make(map[key]bool)
	var out []checkItem
	for _, a := range as {
		k := key{a.req, nil}
		if len(a.body) > 0 {
			k.body = &a.body[0]
		}
		if !a.ok() || done[k] {
			continue
		}
		done[k] = true
		out = append(out, checkItem{a.req, a.results})
	}
	return out
}

// checkAnswers runs the oracle over every item and returns the number
// of sentences checked and the first mismatch.
func checkAnswers(o *oracle, items []checkItem) (int, error) {
	n := 0
	for _, it := range items {
		for i, r := range it.results {
			if err := o.check(it.req.grammar, it.req.sents[i], r); err != nil {
				return n, err
			}
			n++
		}
	}
	return n, nil
}

// summary is a phase reduced to what the end-to-end metrics need.
type summary struct {
	attempted, failed int
	sent, sents       int // sentences sent, and answered
	repeats           int // sentences seen earlier in the run
	// The timing metrics divide each round's times by its slowness.
	rounds    int
	slow      float64   // the rounds' median slowness
	rawRate   float64   // answered sentences over the rounds' wall time
	lats      []float64 // ms, of the requests answered 200, over their round's slowness
	sentsPerS float64   // median over the rounds of sentences per slowness-scaled second
}

// summarize reduces a phase; seen holds every sentence sent earlier in
// the run and is updated with this phase's sentences.
func summarize(p *phase, as []answer, seen map[string]bool) summary {
	s := summary{attempted: len(as), rounds: len(p.rounds)}
	perRound := make([]int, len(p.rounds))
	for _, a := range as {
		s.sent += len(a.req.sents)
		for _, w := range a.req.sents {
			k := sentenceKey(a.req.grammar, w)
			if seen[k] {
				s.repeats++
			}
			seen[k] = true
		}
		if !a.ok() {
			s.failed++
			continue
		}
		s.sents += len(a.req.sents)
		perRound[a.round] += len(a.req.sents)
		s.lats = append(s.lats, ms(a.lat)/p.rounds[a.round].slow)
	}
	rates := make([]float64, len(p.rounds))
	slows := make([]float64, len(p.rounds))
	for i, r := range p.rounds {
		rates[i] = float64(perRound[i]) * r.slow / r.wall.Seconds()
		slows[i] = r.slow
	}
	s.sentsPerS, s.slow = quantile(rates, 0.5), quantile(slows, 0.5)
	s.rawRate = ratio(float64(s.sents), p.wall.Seconds())
	return s
}

// endToEnd sets the metrics a user of the service sees, except
// heap_live_mb, which is read once the per-request records are dropped.
func endToEnd(m *metrics, p *phase, s summary, setup setupTimes) {
	m.set("setup_s", setup.median, "s", fmt.Sprintf("median of %d set-ups over their slowness: %.3f s, slowness %.3f", len(setup.secs), setup.secs, setup.slows))
	m.set("sents_per_s", s.sentsPerS, "sents/s", fmt.Sprintf("median of %d rounds (median slowness %.3f); %d sentences, %.3f per wall second",
		s.rounds, s.slow, s.sents, s.rawRate))
	m.set("latency_p50_ms", quantile(s.lats, 0.5), "ms", fmt.Sprintf("n=%d requests", len(s.lats)))
	m.set("latency_p90_ms", quantile(s.lats, 0.9), "ms", fmt.Sprintf("n=%d requests", len(s.lats)))
	m.set("answered_frac", float64(s.attempted-s.failed)/float64(s.attempted), "ratio",
		fmt.Sprintf("%d of %d requests not answered 200", s.failed, s.attempted))
	m.set("alloc_kb_per_sent", float64(p.alloc)/1024/float64(max(s.sents, 1)), "kB", "TotalAlloc delta over the timed phase")
}

// traceLayers sets the per-layer metrics that come from the traced
// phase: spans, response timing fields, and Stats() deltas.
func traceLayers(m *metrics, p *phase, as []answer, spans []span, rec *recorder) {
	// A server span's children are the pool's queue wait and parse,
	// taken from the answer: for a gang member host_time_us is its even
	// share of the gang's wall time, so host_time_us × batch_size is the
	// gang's wall time. The member with the longest queue+parse is the
	// batch's critical path. Its position inside the handler span is not
	// observable; anchoring it at the span start covers the same length.
	byReq := make(map[uint64][]server.ParseResult)
	var queues, parses []float64
	for _, a := range as {
		if a.id != 0 {
			byReq[a.id] = a.results
		}
		for _, r := range a.results {
			if !r.Cached {
				queues = append(queues, float64(r.QueueTimeUS)/1000)
				parses = append(parses, float64(r.HostTimeUS)/1000)
			}
		}
	}
	all := spans
	for _, s := range spans {
		if s.Name != "server" {
			continue
		}
		var q, w int64
		for _, r := range byReq[s.Req] {
			rq, rw := r.QueueTimeUS*1000, r.HostTimeUS*int64(max(r.BatchSize, 1))*1000
			if rq+rw > q+w {
				q, w = rq, rw
			}
		}
		if q+w > 0 {
			all = append(all,
				span{ID: rec.newID(), Parent: s.ID, Req: s.Req, Name: "queue", Start: s.Start, End: s.Start + q},
				span{ID: rec.newID(), Parent: s.ID, Req: s.Req, Name: "parse", Start: s.Start + q, End: s.Start + q + w})
		}
	}
	self := selfTimes(all)
	durs := func(name string, useSelf bool) []float64 {
		var out []float64
		for _, s := range all {
			if s.Name == name {
				d := s.dur()
				if useSelf {
					d = self[s.ID]
				}
				out = append(out, us(d))
			}
		}
		return out
	}

	m.set("router.self_us_p50", quantile(durs("router", true), 0.5), "us", "router handler span minus its forward spans")
	m.set("router.forward_us_p50", quantile(durs("forward", false), 0.5), "us", "router RoundTripper span")
	var total, most uint64
	for _, n := range p.router.Requests {
		total += n
		most = max(most, n)
	}
	skew := 0.0
	if total > 0 {
		skew = float64(most) / (float64(total) / float64(len(p.router.Requests)))
	}
	m.set("router.shard_skew", skew, "ratio", "largest shard's requests over the mean")
	m.set("router.hedges", float64(p.router.Hedges), "count", "")
	m.set("router.failovers", float64(p.router.Failovers), "count", "")
	m.set("router.sheds", float64(p.router.ShedsInteractive+p.router.ShedsBulk), "count", "")

	m.set("server.handler_us_p50", quantile(durs("server", false), 0.5), "us", "shard handler span")
	m.set("server.queue_ms_p50", quantile(queues, 0.5), "ms", fmt.Sprintf("queue_time_us of %d parsed answers", len(queues)))
	m.set("server.parse_ms_p50", quantile(parses, 0.5), "ms", fmt.Sprintf("host_time_us of %d parsed answers", len(parses)))
	m.set("server.self_us_p50", quantile(durs("server", true), 0.5), "us", "handler span minus queue and parse")
	hits, lookups := p.server.ResultCacheHits, p.server.ResultCacheHits+p.server.ResultCacheMisses
	m.set("server.result_cache_hit_ratio", ratio(float64(hits), float64(lookups)), "ratio", fmt.Sprintf("%d of %d lookups", hits, lookups))
	m.set("server.gang_jobs_per_run", ratio(float64(p.server.GangJobs), float64(p.server.GangRuns)), "jobs/run",
		fmt.Sprintf("%d gang runs", p.server.GangRuns))
	m.set("server.rejected", float64(p.server.Rejected), "count", "")
	m.set("server.timeouts", float64(p.server.Timeouts), "count", "")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
