package main

import (
	"math"
	"net/http"
	"testing"
	"time"

	"repro/internal/server"
)

func TestSummarizeScalesBySlowness(t *testing.T) {
	one := &request{grammar: "demo", sents: [][]string{{"a"}}}
	two := &request{grammar: "demo", sents: [][]string{{"b"}, {"c"}}}
	at := func(r *request, round int, lat time.Duration, ok bool) answer {
		a := answer{sample: sample{req: r, round: round, lat: lat}}
		if ok {
			a.status = http.StatusOK
			a.results = make([]server.ParseResult, len(r.sents))
		}
		return a
	}
	ms := time.Millisecond
	// Round 0 ran at reference speed, round 1 at half of it. The failed
	// request counts as attempted but adds no sentence and no latency.
	p := &phase{wall: 3 * time.Second, rounds: []round{{time.Second, 1}, {2 * time.Second, 2}}}
	as := []answer{
		at(one, 0, 100*ms, true),
		at(two, 0, 200*ms, true),
		at(one, 0, 300*ms, false),
		at(one, 1, 400*ms, true),
	}
	s := summarize(p, as, make(map[string]bool))
	if s.attempted != 4 || s.failed != 1 || s.sents != 4 || s.sent != 5 || s.repeats != 2 {
		t.Errorf("counts %+v", s)
	}
	// Round rates: 3 sentences in 1 s at slowness 1, 1 in 2 s at 2.
	if math.Abs(s.sentsPerS-2) > 1e-9 || math.Abs(s.rawRate-4.0/3) > 1e-9 || s.slow != 1.5 {
		t.Errorf("sents_per_s %v raw %v slowness %v, want 2, 4/3, 1.5", s.sentsPerS, s.rawRate, s.slow)
	}
	want := []float64{100, 200, 200}
	if len(s.lats) != len(want) {
		t.Fatalf("latencies %v, want %v", s.lats, want)
	}
	for i, w := range want {
		if math.Abs(s.lats[i]-w) > 1e-9 {
			t.Errorf("latencies %v, want %v", s.lats, want)
		}
	}
}

func TestSlownessIsPositiveAndKernelDeterministic(t *testing.T) {
	if a, b := calKernel(7), calKernel(7); a != b {
		t.Errorf("kernel gave %d then %d", a, b)
	}
	if s := slowness(); !(s > 0) {
		t.Errorf("slowness %v", s)
	}
}
