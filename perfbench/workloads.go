package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/server"
)

// bench is one workload: how big a stack it runs on, how each freshly
// booted stack is warmed, and the clients of its timed phases.
type bench struct {
	shards  int
	fleet   bool
	warm    func(st *stack) error
	clients []source
	// warmed lists the sentences set-up sends, for the repeat share.
	warmed []*request
	// maxTimed, when set, bounds the timed phases of one run together.
	maxTimed time.Duration
}

var workloadNames = []string{"parse-maspar", "batch-gang", "hot-fleet"}

func newBench(name string, seed int64) (*bench, error) {
	switch name {
	case "parse-maspar":
		// Distinct 6–10 word sentences on the default maspar backend:
		// every request misses the result cache and one client keeps the
		// batch size at 1, so this isolates the solo simulator path.
		return distinctBench(seed, 6, 10, 1), nil
	case "batch-gang":
		// Batches of gangSize distinct same-length sentences, 6–8 words,
		// one client: with two, equal-length batches merged into 16-way
		// gangs only when their arrivals happened to line up.
		return distinctBench(seed, 6, 8, gangSize), nil
	case "hot-fleet":
		return hotFleet(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func parseRequest(grammar string, words []string) *request {
	body, _ := json.Marshal(server.ParseRequest{Grammar: grammar, Sentence: words}) // plain struct: cannot fail
	return &request{path: "/v1/parse", grammar: grammar, sents: [][]string{words}, body: body}
}

func batchRequest(grammar string, sents [][]string) *request {
	b := server.BatchRequest{Requests: make([]server.ParseRequest, len(sents))}
	for i, w := range sents {
		b.Requests[i] = server.ParseRequest{Grammar: grammar, Sentence: w}
	}
	body, _ := json.Marshal(b) // plain struct: cannot fail
	return &request{path: "/v1/batch", grammar: grammar, sents: sents, body: body}
}

// distinctSource sends distinct English sentences, size per request
// (1: /v1/parse, more: one same-length /v1/batch), with lengths from
// a lengthCycle.
type distinctSource struct {
	gen  *generator
	lens *lengthCycle
	size int
}

func (s *distinctSource) make(n int) (*request, error) {
	sents := make([][]string, s.size)
	for i := range sents {
		w, err := s.gen.sentence(english, n)
		if err != nil {
			return nil, err
		}
		sents[i] = w
	}
	if s.size == 1 {
		return parseRequest(english.grammar, sents[0]), nil
	}
	return batchRequest(english.grammar, sents), nil
}

func (s *distinctSource) next() (*request, error) { return s.make(s.lens.next()) }

// mayStop holds the loop until every length of the current block was
// sent, keeping each timed phase's length mix exactly even.
func (s *distinctSource) mayStop() bool { return len(s.lens.block) == 0 }

// distinctBench is parse-maspar and batch-gang: one client, every
// sentence distinct, and set-up warms each length with one request so
// the grammar is compiled and the layout cache holds every length.
func distinctBench(seed int64, lo, hi, size int) *bench {
	src := &distinctSource{
		gen:  newGenerator(seed),
		lens: &lengthCycle{rng: rand.New(rand.NewSource(seed + 1)), lo: lo, hi: hi},
		size: size,
	}
	b := &bench{shards: 1, clients: []source{src}}
	b.warm = func(st *stack) error {
		for n := lo; n <= hi; n++ {
			r, err := src.make(n)
			if err != nil {
				return err
			}
			b.warmed = append(b.warmed, r)
			if err := st.send([]*request{r}); err != nil {
				return err
			}
		}
		return nil
	}
	return b
}

// gangSize is the member count of each batch-gang request.
const gangSize = 8

const (
	poolSize   = 64
	zipfS      = 1.2
	hotWindow  = 2048 // router hot-key tracker window, in requests
	hotClients = 2
)

// zipfSource draws pool entries by a seeded Zipf law over pool rank.
type zipfSource struct {
	zipf *rand.Zipf
	pool []*request
}

func (s *zipfSource) next() (*request, error) { return s.pool[s.zipf.Uint64()], nil }

func (s *zipfSource) mayStop() bool { return true }

// hotFleet: two clients through the router to two shards, Zipf-skewed
// over a fixed pool that set-up has already answered once, so the
// timed phase reads the result cache; it stresses the router and the
// server's HTTP, JSON and cache-hit path with almost no simulator work.
// The pool alternates English (3–5 words) and demo (2–7 words)
// sentences in a fixed order, so rank r has the same grammar and length
// under every seed and only the words differ.
func hotFleet(seed int64) (*bench, error) {
	gen := newGenerator(seed)
	pool := make([]*request, poolSize)
	for i := range pool {
		f, n := english, 3+(i/2)%3
		if i%2 == 1 {
			f, n = demo, 2+(i/2)%6
		}
		w, err := gen.sentence(f, n)
		if err != nil {
			return nil, err
		}
		pool[i] = parseRequest(f.grammar, w)
	}
	// Primed answers expire from the result cache 60 s after insert, so
	// the timed phases must end well before that.
	b := &bench{shards: 2, fleet: true, warmed: pool, maxTimed: 50 * time.Second}
	for c := 0; c < hotClients; c++ {
		rng := rand.New(rand.NewSource(seed*hotClients + int64(c) + 1))
		b.clients = append(b.clients, &zipfSource{zipf: rand.NewZipf(rng, zipfS, 1, poolSize-1), pool: pool})
	}
	// Set-up primes every pool entry, then runs the Zipf stream for two
	// full hot-key windows, so promotions and replica warm-ups settle
	// before timing.
	b.warm = func(st *stack) error {
		if err := st.send(pool); err != nil {
			return err
		}
		p, err := st.drive(b.clients, time.Hour, hotWindow, nil)
		if err != nil {
			return err
		}
		for _, s := range p.samples {
			if s.status != http.StatusOK {
				return fmt.Errorf("hot-fleet priming: %s %q answered %d", s.req.path, s.req.sents, s.status)
			}
		}
		return nil
	}
	return b, nil
}

// setupTimes are the wall times of a run's set-ups, the host's
// slowness around each, and the median of their ratios.
type setupTimes struct {
	secs, slows []float64
	median      float64
}

// setup boots and warms a stack `times` times and keeps the last one;
// setup_s is the median over the set-ups of the wall time of a boot
// plus warm-up divided by the host's slowness around it. The parse
// workloads warm with fresh sentences each time, so no timed sentence
// was seen in set-up.
func setup(b *bench, times int, rec *recorder) (*stack, setupTimes, error) {
	var st *stack
	var t setupTimes
	var scaled []float64
	slow := slowness()
	for i := 0; i < times; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		if st, err = bootStack(b.shards, b.fleet, rec); err != nil {
			return nil, t, err
		}
		if err := b.warm(st); err != nil {
			st.close()
			return nil, t, err
		}
		secs := time.Since(t0).Seconds()
		after := slowness()
		t.secs = append(t.secs, secs)
		t.slows = append(t.slows, (slow+after)/2)
		scaled = append(scaled, secs/t.slows[i])
		slow = after
	}
	t.median = quantile(scaled, 0.5)
	return st, t, nil
}
