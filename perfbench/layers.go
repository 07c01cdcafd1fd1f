package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cdg"
	"repro/internal/core"
)

// replayPerKey is how many sentences of each (grammar, length) the
// traced run replays against the core, serial and cdg entry points.
const replayPerKey = 2

// resolveReps repeats cdg.Resolve per sentence, since one call takes
// microseconds.
const resolveReps = 200

// replayLengths are the lengths with their own core.parse_ms_p50.nN
// metric: the English lengths of parse-maspar and batch-gang.
var replayLengths = []int{6, 7, 8, 9, 10}

// pickReplays returns the first replayPerKey sentences of each
// (grammar, length) in send order, and the first batch of each length.
func pickReplays(as []answer) (sents []*request, batches []*request) {
	count := make(map[string]int)
	picked := make(map[string]bool)
	batchLen := make(map[int]bool)
	for _, a := range as {
		if !a.ok() {
			continue
		}
		if a.req.path == "/v1/batch" {
			if n := len(a.req.sents[0]); !batchLen[n] {
				batchLen[n] = true
				batches = append(batches, a.req)
			}
		}
		for _, w := range a.req.sents {
			k, sk := fmt.Sprintf("%s|%d", a.req.grammar, len(w)), sentenceKey(a.req.grammar, w)
			if count[k] < replayPerKey && !picked[sk] {
				count[k]++
				picked[sk] = true
				sents = append(sents, &request{grammar: a.req.grammar, sents: [][]string{w}})
			}
		}
	}
	return sents, batches
}

// replayLayers times the public entry points of core, maspar (through
// core.WithAttribution), cdg and serial on sentences the traced phase
// served, outside the server.
func replayLayers(m *metrics, o *oracle, sents, batches []*request) error {
	ctx := context.Background()
	type item struct {
		g    *cdg.Grammar
		name string
		sent *cdg.Sentence
	}
	items := make([]item, len(sents))
	var resolveUS []float64
	for i, r := range sents {
		g, err := o.grammar(r.grammar)
		if err != nil {
			return err
		}
		t0 := time.Now()
		var sent *cdg.Sentence
		for k := 0; k < resolveReps; k++ {
			if sent, err = cdg.Resolve(g, r.sents[0], nil); err != nil {
				return err
			}
		}
		resolveUS = append(resolveUS, us(time.Since(t0))/resolveReps)
		items[i] = item{g, r.grammar, sent}
	}
	m.set("cdg.resolve_us_p50", quantile(resolveUS, 0.5), "us", fmt.Sprintf("%d sentences", len(items)))

	// Warm the layout cache for every (grammar, length) first, as the
	// served run had.
	warmed := make(map[string]bool)
	for _, it := range items {
		k := fmt.Sprintf("%s|%d", it.name, it.sent.Len())
		if !warmed[k] {
			warmed[k] = true
			if _, err := core.NewParser(it.g).ParseSentenceContext(ctx, it.sent); err != nil {
				return err
			}
		}
	}

	var attr core.Attribution
	parsers := make(map[*cdg.Grammar]*core.Parser)
	var all []float64
	perLen := make(map[int][]float64)
	var wall time.Duration
	var cycles, checks uint64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, it := range items {
		p := parsers[it.g]
		if p == nil {
			p = core.NewParser(it.g, core.WithAttribution(&attr))
			parsers[it.g] = p
		}
		t0 := time.Now()
		res, err := p.ParseSentenceContext(ctx, it.sent)
		d := time.Since(t0)
		if err != nil {
			return err
		}
		wall += d
		cycles += res.Counters.Cycles
		checks += res.Counters.ConstraintChecks
		all = append(all, ms(d))
		if it.name == english.grammar {
			perLen[it.sent.Len()] = append(perLen[it.sent.Len()], ms(d))
		}
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(items))
	coreP50 := quantile(all, 0.5)
	m.set("core.parse_ms_p50", coreP50, "ms", fmt.Sprintf("ParseSentenceContext, %d sentences", len(items)))
	for _, l := range replayLengths {
		m.set(fmt.Sprintf("core.parse_ms_p50.n%d", l), quantile(perLen[l], 0.5), "ms", fmt.Sprintf("%d English sentences", len(perLen[l])))
	}
	evalNs, scanNs, routerNs := attr.EvalNs.Load(), attr.ScanNs.Load(), attr.RouterNs.Load()
	w := float64(wall)
	m.set("core.eval_share", float64(evalNs)/w, "ratio", "")
	m.set("core.scan_share", float64(scanNs)/w, "ratio", "")
	m.set("core.router_share", float64(routerNs)/w, "ratio", "")
	m.set("core.other_share", 1-float64(evalNs+scanNs+routerNs)/w, "ratio", "lane decoding, read-back, set-up")
	m.set("core.alloc_kb_per_parse", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/n, "kB", "")
	m.set("maspar.cycles_per_sent", float64(cycles)/n, "count", "charged cycles")
	m.set("maspar.host_ns_per_kcycle", w/(float64(cycles)/1000), "ns", "")
	m.set("maspar.scan_ms_per_sent", float64(scanNs)/1e6/n, "ms", "")
	m.set("maspar.router_ms_per_sent", float64(routerNs)/1e6/n, "ms", "")
	m.set("cdg.checks_per_sent", float64(checks)/n, "count", "counted ConstraintChecks")
	m.set("cdg.eval_ns_per_check", ratio(float64(evalNs), float64(checks)), "ns", "")

	var serialMS []float64
	for _, it := range items {
		p := core.NewParser(it.g, core.WithBackend(core.Serial))
		t0 := time.Now()
		if _, err := p.ParseSentenceContext(ctx, it.sent); err != nil {
			return err
		}
		serialMS = append(serialMS, ms(time.Since(t0)))
	}
	serialP50 := quantile(serialMS, 0.5)
	m.set("serial.parse_ms_p50", serialP50, "ms", "")
	m.set("core.maspar_over_serial", ratio(coreP50, serialP50), "ratio", "")

	var gangWall time.Duration
	members := 0
	for _, b := range batches {
		g, err := o.grammar(b.grammar)
		if err != nil {
			return err
		}
		ss := make([]*cdg.Sentence, len(b.sents))
		for i, w := range b.sents {
			if ss[i], err = cdg.Resolve(g, w, nil); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if _, err := core.NewParser(g).ParseGangContext(ctx, ss); err != nil {
			return err
		}
		gangWall += time.Since(t0)
		members += len(ss)
	}
	m.set("core.gang_ms_per_sent", ratio(ms(gangWall), float64(members)), "ms", fmt.Sprintf("ParseGangContext, %d batches", len(batches)))
	return nil
}
