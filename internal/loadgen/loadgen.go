// Package loadgen is the one load driver behind cmd/parsecload and the
// fleet benchmark (internal/benchfleet): the seeded request mix, the
// closed loop that sends it, the quantile rule the reports read
// latency through, and the /metrics fetch. Both callers send the same
// bytes for the same mix and seed, so a scenario measures the same
// traffic whichever way it runs.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/prom"
	"repro/internal/server"
	"repro/internal/workload"
)

// Mix describes a request mix. The zero values of TimeoutMS and
// NoCache leave those fields out of the bodies entirely.
type Mix struct {
	Grammars []string // parse mixes draw each request's grammar from these
	Backend  string
	MaxLen   int // longest generated sentence
	// ZipfS > 0 draws every request from a pool of ZipfPool distinct
	// bodies with Zipf skew ZipfS (> 1); 0 generates every body fresh.
	ZipfS    float64
	ZipfPool int
	// Lattice sends English word lattices to /v1/lattice instead of
	// parses: LatticeSlots × LatticeAlts each, cycling through
	// LatticeUtterances utterance ids so repeats reuse prefix snapshots.
	Lattice                                      bool
	LatticeSlots, LatticeAlts, LatticeUtterances int
	TimeoutMS                                    int
	NoCache                                      bool
}

// Endpoint is the request path the mix posts to.
func (m Mix) Endpoint() string {
	if m.Lattice {
		return "/v1/lattice"
	}
	return "/v1/parse"
}

// Bodies pre-generates n request bodies from seed, so the closed loop
// only does HTTP and the same (mix, seed) always replays the same
// bytes.
func (m Mix) Bodies(n int, seed int64) ([][]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	gen := func(i int) ([]byte, error) {
		if m.Lattice {
			return m.latticeBody(i)
		}
		name := m.Grammars[rng.Intn(len(m.Grammars))]
		return json.Marshal(server.ParseRequest{
			Grammar:   name,
			Backend:   m.Backend,
			Sentence:  sentenceFor(name, rng, m.MaxLen),
			TimeoutMS: m.TimeoutMS,
			MaxParses: 1,
			NoCache:   m.NoCache,
		})
	}
	src := gen
	if m.ZipfS > 0 {
		// Skewed reuse: a few pool bodies dominate — the result cache's case.
		pool := make([][]byte, m.ZipfPool)
		for i := range pool {
			body, err := gen(i)
			if err != nil {
				return nil, err
			}
			pool[i] = body
		}
		z := rand.NewZipf(rng, m.ZipfS, 1, uint64(len(pool)-1))
		src = func(int) ([]byte, error) { return pool[z.Uint64()], nil }
	}
	bodies := make([][]byte, n)
	for i := range bodies {
		body, err := src(i)
		if err != nil {
			return nil, err
		}
		bodies[i] = body
	}
	return bodies, nil
}

// sentenceFor picks a grammatical-shape sentence for the named grammar
// from the workload generators.
func sentenceFor(name string, rng *rand.Rand, maxLen int) []string {
	switch name {
	case "english":
		return workload.EnglishSentence(3 + rng.Intn(max(1, maxLen-2)))
	case "ww":
		return workload.CopyString(1+rng.Intn(3), rng.Uint64())
	case "dyck":
		return workload.BalancedParens(1 + rng.Intn(3))
	default: // demo and anything else demo-shaped
		return workload.DemoSentence(1 + rng.Intn(max(1, maxLen)))
	}
}

// latticeBody builds the i-th lattice request: utterance i mod
// LatticeUtterances, whose lattice is a deterministic function of its
// index with per-slot scores descending in n-best order.
func (m Mix) latticeBody(i int) ([]byte, error) {
	uidx := i % m.LatticeUtterances
	grid := workload.EnglishLattice(m.LatticeSlots, m.LatticeAlts, uint64(uidx))
	slots := make([][]server.LatticeAlt, len(grid))
	for s, words := range grid {
		row := make([]server.LatticeAlt, len(words))
		for j, w := range words {
			row[j] = server.LatticeAlt{Word: w, Score: 0.9 - 0.15*float64(j)}
		}
		slots[s] = row
	}
	return json.Marshal(server.LatticeRequest{
		Grammar:     "english",
		UtteranceID: fmt.Sprintf("bench-utt-%d", uidx),
		Slots:       slots,
		MaxParses:   1,
		TimeoutMS:   m.TimeoutMS,
		NoCache:     m.NoCache,
	})
}

// Outcome is what the closed loop saw of one request.
type Outcome struct {
	Status  int    // HTTP status; 0 when Err is set
	Shard   string // X-Parsec-Shard; "" when the server does not shard
	Latency time.Duration
	// Backoff is the Retry-After pause the worker honoured after this
	// response (429 and 503 only, capped at RetryAfterCap).
	Backoff time.Duration
	Err     error
}

// RetryAfterCap bounds how long a worker honours one Retry-After hint.
const RetryAfterCap = 5 * time.Second

// Drive posts every body to url from conc workers, each sending its
// next body as soon as the previous one is answered, and returns the
// wall time the run took. record sees every request's outcome, one
// call at a time. A worker that gets a Retry-After hint waits it out
// before it sends again, so the loop backs off instead of hammering a
// shedding fleet. Cancelling ctx stops the run.
func Drive(ctx context.Context, client *http.Client, url string, bodies [][]byte, conc int, record func(Outcome)) time.Duration {
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(bodies) {
					return
				}
				o := post(ctx, client, url, bodies[i])
				mu.Lock()
				record(o)
				mu.Unlock()
				if o.Backoff > 0 {
					t := time.NewTimer(o.Backoff)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
					}
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

func post(ctx context.Context, client *http.Client, url string, body []byte) Outcome {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return Outcome{Err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return Outcome{Latency: time.Since(t0), Err: err}
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	o := Outcome{Status: resp.StatusCode, Shard: resp.Header.Get(server.ShardHeader), Latency: time.Since(t0)}
	if o.Status == http.StatusTooManyRequests || o.Status == http.StatusServiceUnavailable {
		if secs, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After"))); err == nil && secs > 0 {
			o.Backoff = min(time.Duration(secs)*time.Second, RetryAfterCap)
		}
	}
	return o
}

// Quantile returns the p-quantile (0 < p <= 1) of an ascending slice
// by the index rule every report here reads latency through:
// sorted[int(p·n)-1], clamped at 0. It is the zero value when sorted
// is empty.
func Quantile[T any](sorted []T, p float64) T {
	var zero T
	if len(sorted) == 0 {
		return zero
	}
	return sorted[max(0, int(p*float64(len(sorted)))-1)]
}

// Scrape fetches base's /metrics and parses it. A transport error, a
// non-200 answer or a body that cannot be read in full is an error:
// a scrape that failed never reads as one that saw zeros.
func Scrape(ctx context.Context, client *http.Client, base string) ([]prom.Family, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return prom.Parse(resp.Body)
}
