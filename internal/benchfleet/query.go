package benchfleet

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/loadgen"
)

// Query selects a slice of the sample store. The zero value selects
// the whole run across all shards.
type Query struct {
	// Phase restricts to the windows of one scenario phase ("" = all).
	Phase string
	// Shard restricts to one source ("" = all shards; RouterSource
	// selects the router stripe for scraped families).
	Shard string
}

// windowSet returns the window indices the query covers, in order.
func (s *Store) windowSet(q Query) []int {
	var out []int
	for i, w := range s.windows {
		if q.Phase == "" || w.Phase == q.Phase {
			out = append(out, i)
		}
	}
	return out
}

// Quantile returns the exact p-quantile (0 < p <= 1) of request
// latency over the per-request records the query selects, in
// nanoseconds, by loadgen.Quantile's index rule. ok is false when no
// records match.
func (s *Store) Quantile(q Query, p float64) (latNs int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lats := s.selectLatencies(q)
	if len(lats) == 0 {
		return 0, false
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return loadgen.Quantile(lats, p), true
}

// QuantileByShard computes the p-quantile of request latency for every
// shard that answered requests in the query's windows — the "p99 by
// shard during the kill window" query.
func (s *Store) QuantileByShard(phase string, p float64) map[string]int64 {
	out := map[string]int64{}
	for _, shard := range s.Shards() {
		if v, ok := s.Quantile(Query{Phase: phase, Shard: shard}, p); ok {
			out[shard] = v
		}
	}
	return out
}

// selectLatencies gathers latencies of matching records (caller holds
// the lock).
func (s *Store) selectLatencies(q Query) []int64 {
	windows := make(map[int32]bool)
	for _, w := range s.windowSet(q) {
		windows[int32(w)] = true
	}
	src := int32(-2) // match nothing by default when the shard is unknown
	if q.Shard == "" {
		src = -3 // sentinel: any source
	} else if i, ok := s.srcIdx[q.Shard]; ok {
		src = int32(i)
	}
	var lats []int64
	for i := range s.reqWindow {
		if !windows[s.reqWindow[i]] {
			continue
		}
		if src != -3 && s.reqSrc[i] != src {
			continue
		}
		lats = append(lats, s.reqLatNs[i])
	}
	return lats
}

// CountRequests counts matching request records; statusOK of nil
// counts everything, otherwise only records whose status it accepts.
func (s *Store) CountRequests(q Query, statusOK func(int) bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	windows := make(map[int32]bool)
	for _, w := range s.windowSet(q) {
		windows[int32(w)] = true
	}
	n := 0
	for i := range s.reqWindow {
		if !windows[s.reqWindow[i]] {
			continue
		}
		if q.Shard != "" {
			si, ok := s.srcIdx[q.Shard]
			if !ok || s.reqSrc[i] != int32(si) {
				continue
			}
		}
		if statusOK == nil || statusOK(int(s.reqStatus[i])) {
			n++
		}
	}
	return n
}

// Series returns family's cumulative per-window values for one source.
// Windows where the source never exposed the family carry NaN-free
// zeros with ok=false in the parallel presence slice.
func (s *Store) Series(family, source string) (values []float64, present []bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.cols[family]
	si, ok := s.srcIdx[source]
	if c == nil || !ok {
		return nil, nil
	}
	stride := len(s.sources)
	for w := range s.windows {
		i := w*stride + si
		if i < len(c.values) {
			values = append(values, c.values[i])
			present = append(present, c.present[i])
		} else {
			values = append(values, 0)
			present = append(present, false)
		}
	}
	return values, present
}

// Delta returns how much the (cumulative) family grew for source
// during the query's windows: last covered value minus the last value
// before the first covered window (zero when none precedes it). ok is
// false when the family was never scraped for the source in range. A
// counter reset mid-span (process restart after a kill fault) clamps
// to zero rather than reporting a negative delta.
func (s *Store) Delta(family, source string, q Query) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.cols[family]
	si, okSrc := s.srcIdx[source]
	if c == nil || !okSrc {
		return 0, false
	}
	ws := s.windowSet(q)
	if len(ws) == 0 {
		return 0, false
	}
	stride := len(s.sources)
	at := func(w int) (float64, bool) {
		i := w*stride + si
		if i >= len(c.values) {
			return 0, false
		}
		return c.values[i], c.present[i]
	}
	last, okLast := at(ws[len(ws)-1])
	if !okLast {
		return 0, false
	}
	// Baseline: the nearest present value strictly before the span.
	base := 0.0
	for w := ws[0] - 1; w >= 0; w-- {
		if v, ok := at(w); ok {
			base = v
			break
		}
	}
	d := last - base
	if d < 0 {
		d = 0
	}
	return d, true
}

// SumDelta sums Delta across every shard stripe (router excluded).
func (s *Store) SumDelta(family string, q Query) (float64, bool) {
	total, any := 0.0, false
	for _, shard := range s.Shards() {
		if v, ok := s.Delta(family, shard, q); ok {
			total += v
			any = true
		}
	}
	return total, any
}

// HitRate derives the result-cache hit rate for one shard (or, with
// source "", the whole fleet) over the query's windows from the
// scraped parsecd_result_cache_{hits,misses}_total counters. ok is
// false when there were no lookups in the span.
func (s *Store) HitRate(source string, q Query) (float64, bool) {
	var hits, misses float64
	var okH, okM bool
	if source == "" {
		hits, okH = s.SumDelta("parsecd_result_cache_hits_total", q)
		misses, okM = s.SumDelta("parsecd_result_cache_misses_total", q)
	} else {
		hits, okH = s.Delta("parsecd_result_cache_hits_total", source, q)
		misses, okM = s.Delta("parsecd_result_cache_misses_total", source, q)
	}
	if !okH && !okM {
		return 0, false
	}
	lookups := hits + misses
	if lookups == 0 {
		return 0, false
	}
	return hits / lookups, true
}

// DescribeQuery is the CLI's post-hoc entry point: a small textual
// report for one phase — request counts and exact quantiles from the
// per-request records, plus cache hit rate and served requests per
// shard from the scrapes.
func (s *Store) DescribeQuery(q Query, p float64) string {
	var b strings.Builder
	scope := q.Phase
	if scope == "" {
		scope = "whole run"
	}
	fmt.Fprintf(&b, "windows=%d span=%s\n", len(s.windowSet(q)), scope)
	if n := s.CountRequests(q, nil); n > 0 {
		fmt.Fprintf(&b, "requests=%d ok=%d\n", n, s.CountRequests(q, func(st int) bool { return st == 200 }))
		if v, ok := s.Quantile(q, p); ok {
			fmt.Fprintf(&b, "p%d all-shards: %.3fms\n", int(p*100), float64(v)/1e6)
		}
	}
	for _, shard := range s.Shards() {
		if q.Shard != "" && shard != q.Shard {
			continue
		}
		fmt.Fprintf(&b, "shard %s:", shard)
		wrote := false
		if v, ok := s.Quantile(Query{Phase: q.Phase, Shard: shard}, p); ok {
			fmt.Fprintf(&b, " p%d=%.3fms", int(p*100), float64(v)/1e6)
			wrote = true
		}
		if hr, ok := s.HitRate(shard, q); ok {
			fmt.Fprintf(&b, " hit-rate=%.1f%%", hr*100)
			wrote = true
		}
		if d, ok := s.Delta("parsecd_requests_total", shard, q); ok {
			fmt.Fprintf(&b, " served=%.0f", d)
			wrote = true
		}
		if !wrote {
			b.WriteString(" (no samples)")
		}
		b.WriteString("\n")
	}
	return b.String()
}
