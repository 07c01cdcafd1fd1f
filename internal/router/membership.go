package router

import (
	"context"
	"net/http"
	"sync"
	"time"
)

// ShardState is the membership state of one backend.
type ShardState int

const (
	// StateLive shards receive traffic; EjectAfter consecutive probe
	// failures move them to StateEjected.
	StateLive ShardState = iota
	// StateProbation shards are tentatively re-admitted: they receive
	// traffic again, but a single probe failure re-ejects them, and
	// ReadmitAfter consecutive probe successes promote them to live.
	StateProbation
	// StateEjected shards receive no traffic; a successful probe moves
	// them to probation.
	StateEjected
)

func (s ShardState) String() string {
	switch s {
	case StateLive:
		return "live"
	case StateProbation:
		return "probation"
	case StateEjected:
		return "ejected"
	}
	return "unknown"
}

// ShardStatus is one shard's membership snapshot (healthz, tests).
type ShardStatus struct {
	URL       string     `json:"url"`
	State     ShardState `json:"-"`
	StateName string     `json:"state"`
	// Failures is the consecutive probe-failure count (live shards);
	// Successes the consecutive probe-success count (probation shards).
	Failures  int `json:"consecutive_failures"`
	Successes int `json:"consecutive_successes"`
}

// shard is one backend's membership record. All fields except the
// immutable url are guarded by the owning fleet's mu.
type shard struct {
	url       string
	state     ShardState
	failures  int
	successes int
}

// fleet is the router's membership view: a fixed roster of shards in
// configuration order, each with a probe-driven state machine. The
// roster never changes; only states do.
type fleet struct {
	ejectAfter   int
	readmitAfter int
	m            *routerMetrics

	mu sync.Mutex
	// Guarded by mu: the per-shard state machines (the slice header is
	// immutable; the pointed-to records are what mu protects).
	shards []*shard
}

func newFleet(urls []string, ejectAfter, readmitAfter int, m *routerMetrics) *fleet {
	shards := make([]*shard, len(urls))
	for i, u := range urls {
		shards[i] = &shard{url: u, state: StateLive}
	}
	return &fleet{ejectAfter: ejectAfter, readmitAfter: readmitAfter, m: m, shards: shards}
}

// eligible returns the URLs of shards currently receiving traffic
// (live + probation), in configuration order.
func (f *fleet) eligible() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.shards))
	for _, s := range f.shards {
		if s.state != StateEjected {
			out = append(out, s.url)
		}
	}
	return out
}

// snapshot returns every shard's status in configuration order.
func (f *fleet) snapshot() []ShardStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]ShardStatus, 0, len(f.shards))
	for _, s := range f.shards {
		out = append(out, ShardStatus{
			URL: s.url, State: s.state, StateName: s.state.String(),
			Failures: s.failures, Successes: s.successes,
		})
	}
	return out
}

// probeResult applies one probe outcome to url's state machine:
// consecutive-failure ejection for live shards, probation on the first
// success of an ejected shard, promotion back to live after
// readmitAfter consecutive successes, and immediate re-ejection of a
// probation shard that fails.
func (f *fleet) probeResult(url string, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.shards {
		if s.url != url {
			continue
		}
		switch s.state {
		case StateLive:
			if ok {
				s.failures = 0
				break
			}
			s.failures++
			if s.failures >= f.ejectAfter {
				s.state, s.failures, s.successes = StateEjected, 0, 0
				f.m.countEjection(url)
			}
		case StateEjected:
			if ok {
				s.state, s.successes = StateProbation, 1
				f.m.countProbation(url)
			}
		case StateProbation:
			if !ok {
				s.state, s.successes = StateEjected, 0
				f.m.countEjection(url)
				break
			}
			s.successes++
			if s.successes >= f.readmitAfter {
				s.state, s.failures, s.successes = StateLive, 0, 0
				f.m.countReadmission(url)
			}
		}
		return
	}
}

// ProbeOnce probes every shard's /healthz once, synchronously, and
// applies the results to the membership state machines. The background
// prober calls it on a ticker; tests call it directly to advance
// membership deterministically (no sleeping, no polling).
func (r *Router) ProbeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, s := range r.fleet.snapshot() {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			ok := r.probe(ctx, url)
			r.m.probes.Add(1)
			if !ok {
				r.m.probeFailures.Add(1)
			}
			r.fleet.probeResult(url, ok)
		}(s.URL)
	}
	wg.Wait()
}

// probe performs one /healthz round trip within the probe timeout.
func (r *Router) probe(ctx context.Context, url string) bool {
	pctx, cancel := context.WithTimeout(ctx, r.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	drain(resp.Body)
	return resp.StatusCode == http.StatusOK
}

// probeLoop drives ProbeOnce every ProbeInterval until ctx is
// cancelled (Shutdown).
func (r *Router) probeLoop(ctx context.Context) {
	t := time.NewTicker(r.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			r.ProbeOnce(ctx)
		}
	}
}
