package benchfleet

import (
	"encoding/json"
	"reflect"
	"testing"
)

// fixtureStore hand-builds a run: two shards, a pre window, a warm
// phase, a kill phase (shard s1 dark), and a recover phase where s1 is
// back with reset counters. Every expected value below is hand-computed
// from these numbers.
func fixtureStore() *Store {
	st := NewStore([]string{"s0", "s1"})

	w0 := st.OpenWindow("pre", 0)
	st.SetSample(w0, "s0", "parsecd_requests_total", 100)
	st.SetSample(w0, "s1", "parsecd_requests_total", 50)
	st.SetSample(w0, "s0", "parsecd_result_cache_hits_total", 0)
	st.SetSample(w0, "s0", "parsecd_result_cache_misses_total", 0)
	st.SetSample(w0, "s1", "parsecd_result_cache_hits_total", 0)
	st.SetSample(w0, "s1", "parsecd_result_cache_misses_total", 0)
	st.SetSample(w0, RouterSource, "parsecrouter_failovers_total", 2)
	st.CloseWindow(w0, 0)

	w1 := st.OpenWindow("warm", 0)
	st.SetSample(w1, "s0", "parsecd_requests_total", 140) // +40
	st.SetSample(w1, "s1", "parsecd_requests_total", 80)  // +30
	st.SetSample(w1, "s0", "parsecd_result_cache_hits_total", 30)
	st.SetSample(w1, "s0", "parsecd_result_cache_misses_total", 10)
	st.SetSample(w1, "s1", "parsecd_result_cache_hits_total", 0)
	st.SetSample(w1, "s1", "parsecd_result_cache_misses_total", 10)
	st.SetSample(w1, RouterSource, "parsecrouter_failovers_total", 2)
	st.CloseWindow(w1, 0)

	// Kill phase: s1 is dark (no scrape lands), s0 keeps counting, the
	// router fails over 5 times. s0 also exposes a latency histogram.
	w2 := st.OpenWindow("kill", 0)
	st.SetSample(w2, "s0", "parsecd_requests_total", 190)             // +50
	st.SetSample(w2, RouterSource, "parsecrouter_failovers_total", 7) // +5
	st.SetSample(w2, "s0", "parsecd_parse_latency_seconds|le=0.01", 4)
	st.SetSample(w2, "s0", "parsecd_parse_latency_seconds|le=0.05", 9)
	st.SetSample(w2, "s0", "parsecd_parse_latency_seconds|le=+Inf", 10)
	// Per-request records during the kill window (latencies in ms):
	// s0 saw 10,20,30,40,50; s1 saw 100,200; one unattributed transport
	// error at 999.
	for _, ms := range []int64{10, 20, 30, 40, 50} {
		st.RecordRequest(w2, "s0", 200, ms*1e6)
	}
	st.RecordRequest(w2, "s1", 200, 100*1e6)
	st.RecordRequest(w2, "s1", 200, 200*1e6)
	st.RecordRequest(w2, "", 0, 999*1e6)
	st.CloseWindow(w2, 0)

	// Recover: s1 is back but restarted — its counter reset to 5.
	w3 := st.OpenWindow("recover", 0)
	st.SetSample(w3, "s0", "parsecd_requests_total", 230) // +40
	st.SetSample(w3, "s1", "parsecd_requests_total", 5)   // reset
	st.CloseWindow(w3, 0)

	return st
}

// TestQuantileByShardDuringKillWindow pins the tentpole query — "p99 by
// shard during the kill window" — against hand-computed values. The
// quantile index rule is sorted[int(p*n)-1] clamped at 0 (parsecload's
// rule): s0 has n=5 → index 3 → 40ms; s1 has n=2 → index 0 → 100ms.
func TestQuantileByShardDuringKillWindow(t *testing.T) {
	st := fixtureStore()
	got := st.QuantileByShard("kill", 0.99)
	want := map[string]int64{"s0": 40 * 1e6, "s1": 100 * 1e6}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("QuantileByShard(kill, 0.99) = %v, want %v", got, want)
	}

	// Whole-phase p99 over all 8 records: sorted index int(0.99*8)-1 =
	// 6 → 200ms. p50: index int(0.5*8)-1 = 3 → 40ms.
	if v, ok := st.Quantile(Query{Phase: "kill"}, 0.99); !ok || v != 200*1e6 {
		t.Fatalf("Quantile(kill, .99) = %d,%v want 200ms", v, ok)
	}
	if v, ok := st.Quantile(Query{Phase: "kill"}, 0.50); !ok || v != 40*1e6 {
		t.Fatalf("Quantile(kill, .50) = %d,%v want 40ms", v, ok)
	}
	// No records outside the kill phase.
	if _, ok := st.Quantile(Query{Phase: "warm"}, 0.99); ok {
		t.Fatal("warm phase should have no request records")
	}
}

func TestCountRequests(t *testing.T) {
	st := fixtureStore()
	q := Query{Phase: "kill"}
	if n := st.CountRequests(q, nil); n != 8 {
		t.Fatalf("all records = %d, want 8", n)
	}
	okOnly := func(s int) bool { return s == 200 }
	if n := st.CountRequests(q, okOnly); n != 7 {
		t.Fatalf("200s = %d, want 7", n)
	}
	if n := st.CountRequests(Query{Phase: "kill", Shard: "s1"}, okOnly); n != 2 {
		t.Fatalf("s1 200s = %d, want 2", n)
	}
}

func TestDeltaAndSumDelta(t *testing.T) {
	st := fixtureStore()

	// Warm-phase growth against the pre baseline.
	if d, ok := st.Delta("parsecd_requests_total", "s0", Query{Phase: "warm"}); !ok || d != 40 {
		t.Fatalf("warm s0 delta = %g,%v want 40", d, ok)
	}
	if d, ok := st.SumDelta("parsecd_requests_total", Query{Phase: "warm"}); !ok || d != 70 {
		t.Fatalf("warm fleet delta = %g,%v want 70", d, ok)
	}
	// Kill phase: s1 was never scraped → no delta; the router's
	// failover counter grew by 5.
	if _, ok := st.Delta("parsecd_requests_total", "s1", Query{Phase: "kill"}); ok {
		t.Fatal("dark shard should have no kill-phase delta")
	}
	if d, ok := st.Delta("parsecrouter_failovers_total", RouterSource, Query{Phase: "kill"}); !ok || d != 5 {
		t.Fatalf("kill failovers delta = %g,%v want 5", d, ok)
	}
	// Recover phase: s1's counter reset (80 → 5); the delta clamps to
	// zero instead of going negative.
	if d, ok := st.Delta("parsecd_requests_total", "s1", Query{Phase: "recover"}); !ok || d != 0 {
		t.Fatalf("reset counter delta = %g,%v want clamp to 0", d, ok)
	}
	// Whole-run query spans every window: last s0 value 230 minus
	// nothing before the first window → 230.
	if d, ok := st.Delta("parsecd_requests_total", "s0", Query{}); !ok || d != 230 {
		t.Fatalf("whole-run s0 delta = %g,%v want 230", d, ok)
	}
}

func TestHitRate(t *testing.T) {
	st := fixtureStore()
	// Warm phase: s0 30 hits / 10 misses → 0.75; fleet 30/(30+20) → 0.6.
	if hr, ok := st.HitRate("s0", Query{Phase: "warm"}); !ok || hr != 0.75 {
		t.Fatalf("s0 warm hit rate = %g,%v want 0.75", hr, ok)
	}
	if hr, ok := st.HitRate("", Query{Phase: "warm"}); !ok || hr != 0.6 {
		t.Fatalf("fleet warm hit rate = %g,%v want 0.6", hr, ok)
	}
	// Recover phase saw no lookups at all.
	if _, ok := st.HitRate("s0", Query{Phase: "recover"}); ok {
		t.Fatal("recover phase should report no hit rate")
	}
}

func TestStoreJSONRoundTrip(t *testing.T) {
	st := fixtureStore()
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	st2 := &Store{}
	if err := json.Unmarshal(data, st2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Sources(), st2.Sources()) {
		t.Fatalf("sources changed: %v vs %v", st.Sources(), st2.Sources())
	}
	if !reflect.DeepEqual(st.Windows(), st2.Windows()) {
		t.Fatalf("windows changed")
	}
	// The re-hydrated store answers the same queries.
	if got := st2.QuantileByShard("kill", 0.99); !reflect.DeepEqual(got, map[string]int64{"s0": 40 * 1e6, "s1": 100 * 1e6}) {
		t.Fatalf("round-tripped QuantileByShard = %v", got)
	}
	if d, ok := st2.Delta("parsecrouter_failovers_total", RouterSource, Query{Phase: "kill"}); !ok || d != 5 {
		t.Fatalf("round-tripped failover delta = %g,%v", d, ok)
	}
	if hr, ok := st2.HitRate("", Query{Phase: "warm"}); !ok || hr != 0.6 {
		t.Fatalf("round-tripped fleet hit rate = %g,%v", hr, ok)
	}
}

func TestStoreUnmarshalRejectsRaggedRequests(t *testing.T) {
	doc := `{"sources":["s0","router"],"windows":[{"phase":"p","start_ns":0,"end_ns":0}],` +
		`"columns":{},"requests":{"window":[0],"source":[0],"status":[200,200],"lat_ns":[1]}}`
	st := &Store{}
	if err := json.Unmarshal([]byte(doc), st); err == nil {
		t.Fatal("ragged request columns should fail to unmarshal")
	}
}

func TestRecordRequestUnknownShard(t *testing.T) {
	st := NewStore([]string{"s0"})
	w := st.OpenWindow("p", 0)
	st.RecordRequest(w, "ghost", 200, 1)
	st.RecordRequest(w, "s0", 200, 2)
	if n := st.CountRequests(Query{Phase: "p"}, nil); n != 2 {
		t.Fatalf("total records = %d, want 2", n)
	}
	// The ghost record matches no shard-scoped query.
	if n := st.CountRequests(Query{Phase: "p", Shard: "s0"}, nil); n != 1 {
		t.Fatalf("s0 records = %d, want 1", n)
	}
}
