package benchfleet

import (
	"context"
	"fmt"
	"net/http"
	"time"
)

// Fleet abstracts the two ways a scenario can run: in-process on the
// clustertest harness (tier-1 tests: zero processes, zero sleeps) and
// as real local parsecd/parsecrouter processes (make bench-cluster).
type Fleet interface {
	// RouterURL is the base URL load is driven through.
	RouterURL() string
	// ShardNames returns the fleet's shard names in index order
	// (shard0..shardN-1 — the names the X-Parsec-Shard header carries).
	ShardNames() []string
	// ShardURL returns shard i's base URL for /metrics scrapes.
	ShardURL(i int) string
	// ApplyFault applies one fault-schedule entry.
	ApplyFault(f Fault) error
	// AdvanceProbes steps membership n synchronous probe rounds where
	// the fleet supports deterministic probing (the harness); fleets
	// with a free-running prober treat it as a no-op.
	AdvanceProbes(n int)
	// Client is the HTTP client used for load and scrapes.
	Client() *http.Client
	// Close tears the fleet down.
	Close() error
}

// Options tunes a Run.
type Options struct {
	// ScrapeEvery inserts additional mid-phase scrape windows on this
	// cadence (0: scrape only at phase boundaries — the deterministic
	// in-process mode).
	ScrapeEvery time.Duration
}

// PhaseResult is one phase's client-side accounting.
type PhaseResult struct {
	Name     string
	Requests int
	// Errors counts transport-level failures (no HTTP response).
	Errors int
	// Lost counts requests that did not get a 200 — the metric the
	// fault-tolerance claims gate on (a healthy fleet with failover
	// loses zero requests through a kill phase).
	Lost          int
	ByStatus      map[int]int
	ElapsedNs     int64
	ThroughputRPS float64
	P50Ns, P99Ns  int64
}

// RunResult is a completed scenario run: per-phase client accounting
// plus the columnar sample store every post-hoc query reads.
type RunResult struct {
	Scenario *Scenario
	Store    *Store
	Phases   []PhaseResult
	// StartedAt is the run's wall-clock start (zero in the in-process
	// mode, which never reads the host clock).
	StartedAt time.Time
}

// prePhase names the baseline scrape window taken before any load, so
// the first real phase's counter deltas have a floor.
const prePhase = "pre"

// Run executes the scenario against the fleet: for each phase, apply
// the phase's faults, step deterministic probes, drive the load, and
// scrape every shard plus the router into the phase's closing window.
// The fleet is NOT closed by Run; the caller owns its lifecycle.
func Run(ctx context.Context, fleet Fleet, sc *Scenario, opts Options) (*RunResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	st := NewStore(fleet.ShardNames())
	res := &RunResult{Scenario: sc, Store: st}

	scrapeAll := func(w int) {
		for i, name := range fleet.ShardNames() {
			// Ignore per-scrape errors: a killed shard contributes no
			// samples for the window, which is itself signal.
			ScrapeInto(ctx, fleet.Client(), st, w, name, fleet.ShardURL(i)) //nolint:errcheck
		}
		ScrapeInto(ctx, fleet.Client(), st, w, RouterSource, fleet.RouterURL()) //nolint:errcheck
	}

	// Baseline window: cumulative counters before any load.
	w := st.OpenWindow(prePhase, 0)
	scrapeAll(w)
	st.CloseWindow(w, 0)

	seedBase := sc.Seed
	if seedBase == 0 {
		seedBase = 1
	}
	for pi, p := range sc.Phases {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, f := range sc.FaultsAt(p.Name) {
			if err := fleet.ApplyFault(f); err != nil {
				return nil, fmt.Errorf("benchfleet: phase %q: apply %s on shard %d: %w", p.Name, f.Kind, f.Shard, err)
			}
		}
		fleet.AdvanceProbes(p.Probes)

		w := st.OpenWindow(p.Name, 0)
		stopCadence := startCadence(ctx, opts.ScrapeEvery, p.Name, st, scrapeAll)
		pr, err := drivePhase(ctx, fleet.Client(), fleet.RouterURL(), p, sc.BackendOrDefault(), seedBase+int64(pi), st, w)
		stopCadence()
		if err != nil {
			return nil, fmt.Errorf("benchfleet: phase %q: %w", p.Name, err)
		}
		scrapeAll(w)
		st.CloseWindow(w, 0)
		res.Phases = append(res.Phases, pr)
	}
	return res, nil
}

// startCadence runs mid-phase scrapes on the given cadence (no-op and
// zero goroutines when every is 0, keeping the in-process mode free of
// timers). Each tick lands in its own window tagged with the phase, so
// the phase's sample series gains intra-phase resolution.
func startCadence(ctx context.Context, every time.Duration, phase string, st *Store, scrapeAll func(int)) (stop func()) {
	if every <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				w := st.OpenWindow(phase, 0)
				scrapeAll(w)
				st.CloseWindow(w, 0)
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// BackendOrDefault returns the scenario's parse backend ("serial" when
// unset — the cheapest engine, so fleet benchmarks measure the serving
// path rather than simulator throughput unless a scenario opts into
// one of the parallel backends).
func (sc *Scenario) BackendOrDefault() string {
	if sc.Backend == "" {
		return "serial"
	}
	return sc.Backend
}
