package router

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/prom"
)

// shardCounters is one shard's routing accounting.
type shardCounters struct {
	requests    uint64 // requests this shard answered (terminal responses)
	errors      uint64 // transport errors + retryable 5xx observed from it
	ejections   uint64
	probations  uint64
	readmission uint64

	inflight     int // forwards currently in flight (admission control)
	inflightHigh int // high-water mark of inflight since start
}

// routerMetrics is the router's own observability state, emitted as
// parsecrouter_* series alongside the aggregated parsecd_* families.
type routerMetrics struct {
	started time.Time

	mu sync.Mutex
	// Guarded by mu: the per-shard counter table. Admission reads and
	// writes a shard's in-flight count together, so it stays under one
	// lock.
	perShard map[string]*shardCounters

	failovers     atomic.Uint64 // requests moved to a lower-ranked shard
	emptyFleet    atomic.Uint64 // requests refused because no shard was eligible
	probes        atomic.Uint64
	probeFailures atomic.Uint64
	scrapeErrors  atomic.Uint64 // /metrics scrapes of a shard that failed

	hotKeyPromotions atomic.Uint64 // keys promoted to replicated
	hotKeyDemotions  atomic.Uint64 // promoted keys demoted back to their primary
	hotKeyWarms      atomic.Uint64 // replica warm-up requests completed
	hedges           atomic.Uint64 // duplicate requests fired at the next replica
	hedgeWins        atomic.Uint64 // hedged duplicates that answered first
	hedgeCancels     atomic.Uint64 // losing attempts observed context-cancelled
	shedsInteractive atomic.Uint64 // interactive requests refused by admission
	shedsBulk        atomic.Uint64 // bulk requests refused by admission
}

func newRouterMetrics() *routerMetrics {
	return &routerMetrics{started: time.Now(), perShard: make(map[string]*shardCounters)}
}

// forShard returns url's counter record, creating it on first use.
// Caller holds mu.
func (m *routerMetrics) forShard(url string) *shardCounters {
	sc, ok := m.perShard[url]
	if !ok {
		sc = &shardCounters{}
		m.perShard[url] = sc
	}
	return sc
}

func (m *routerMetrics) countServed(url string) {
	m.mu.Lock()
	m.forShard(url).requests++
	m.mu.Unlock()
}

func (m *routerMetrics) countError(url string) {
	m.mu.Lock()
	m.forShard(url).errors++
	m.mu.Unlock()
}

func (m *routerMetrics) countEjection(url string) {
	m.mu.Lock()
	m.forShard(url).ejections++
	m.mu.Unlock()
}

func (m *routerMetrics) countProbation(url string) {
	m.mu.Lock()
	m.forShard(url).probations++
	m.mu.Unlock()
}

func (m *routerMetrics) countReadmission(url string) {
	m.mu.Lock()
	m.forShard(url).readmission++
	m.mu.Unlock()
}

// sheds returns the shed counter of class.
func (m *routerMetrics) sheds(class reqClass) *atomic.Uint64 {
	if class == classBulk {
		return &m.shedsBulk
	}
	return &m.shedsInteractive
}

// admitInflight claims an in-flight slot on url unless limit is
// reached, tracking the high-water mark. It is the admission-control
// hot path: one mutex hold, no allocation past the first request per
// shard.
func (m *routerMetrics) admitInflight(url string, limit int) bool {
	m.mu.Lock()
	sc := m.forShard(url)
	if sc.inflight >= limit {
		m.mu.Unlock()
		return false
	}
	sc.inflight++
	if sc.inflight > sc.inflightHigh {
		sc.inflightHigh = sc.inflight
	}
	m.mu.Unlock()
	return true
}

// releaseInflight returns url's slot.
func (m *routerMetrics) releaseInflight(url string) {
	m.mu.Lock()
	sc := m.forShard(url)
	if sc.inflight > 0 {
		sc.inflight--
	}
	m.mu.Unlock()
}

// Stats is a point-in-time snapshot of the router counters (tests,
// parsecrouter's drain log).
type Stats struct {
	Requests     map[string]uint64 // per shard
	Errors       map[string]uint64
	Ejections    map[string]uint64
	Inflight     map[string]int // per-shard forwards currently in flight
	InflightHigh map[string]int // per-shard in-flight high-water mark

	Failovers     uint64
	EmptyFleet    uint64
	Probes        uint64
	ProbeFailures uint64

	HotKeyPromotions uint64
	HotKeyDemotions  uint64
	HotKeyWarms      uint64
	Hedges           uint64
	HedgeWins        uint64
	HedgeCancels     uint64
	ShedsInteractive uint64
	ShedsBulk        uint64
}

func (m *routerMetrics) stats() Stats {
	st := Stats{
		Requests:     make(map[string]uint64),
		Errors:       make(map[string]uint64),
		Ejections:    make(map[string]uint64),
		Inflight:     make(map[string]int),
		InflightHigh: make(map[string]int),

		Failovers:     m.failovers.Load(),
		EmptyFleet:    m.emptyFleet.Load(),
		Probes:        m.probes.Load(),
		ProbeFailures: m.probeFailures.Load(),

		HotKeyPromotions: m.hotKeyPromotions.Load(),
		HotKeyDemotions:  m.hotKeyDemotions.Load(),
		HotKeyWarms:      m.hotKeyWarms.Load(),
		Hedges:           m.hedges.Load(),
		HedgeWins:        m.hedgeWins.Load(),
		HedgeCancels:     m.hedgeCancels.Load(),
		ShedsInteractive: m.shedsInteractive.Load(),
		ShedsBulk:        m.shedsBulk.Load(),
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for url, sc := range m.perShard {
		st.Requests[url] = sc.requests
		st.Errors[url] = sc.errors
		st.Ejections[url] = sc.ejections
		st.Inflight[url] = sc.inflight
		st.InflightHigh[url] = sc.inflightHigh
	}
	return st
}

// writePrometheus emits the parsecrouter_* series in deterministic
// (sorted) order. statuses is the fleet snapshot for the liveness
// gauge.
func (m *routerMetrics) writePrometheus(w io.Writer, statuses []ShardStatus) {
	// Snapshot the per-shard table under mu, write after: w is the
	// scraper's connection, and holding the routing-path mutex across it
	// would let a slow scraper stall countServed on every proxied
	// request (lockorder enforces this).
	m.mu.Lock()
	urls := make([]string, 0, len(m.perShard))
	for u := range m.perShard {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	rows := make([]shardCounters, len(urls))
	for i, u := range urls {
		rows[i] = *m.perShard[u]
	}
	m.mu.Unlock()

	p := prom.NewWriter(w)
	perShard := func(name, help, typ string, get func(*shardCounters) uint64) {
		p.Header(name, help, typ)
		for i, u := range urls {
			p.Uint(name, get(&rows[i]), "shard", u)
		}
	}
	perShard("parsecrouter_shard_requests_total", "requests answered by each shard", "counter", func(sc *shardCounters) uint64 { return sc.requests })
	perShard("parsecrouter_shard_errors_total", "transport errors and retryable 5xx responses per shard", "counter", func(sc *shardCounters) uint64 { return sc.errors })
	perShard("parsecrouter_shard_ejections_total", "times each shard was ejected from the fleet", "counter", func(sc *shardCounters) uint64 { return sc.ejections })
	perShard("parsecrouter_shard_probations_total", "times each shard entered probation after ejection", "counter", func(sc *shardCounters) uint64 { return sc.probations })
	perShard("parsecrouter_shard_readmissions_total", "times each shard was promoted from probation back to live", "counter", func(sc *shardCounters) uint64 { return sc.readmission })

	p.Counter("parsecrouter_failovers_total", "requests retried on a lower-ranked shard", m.failovers.Load())
	p.Counter("parsecrouter_empty_fleet_total", "requests refused because no shard was eligible", m.emptyFleet.Load())
	p.Counter("parsecrouter_probes_total", "health probes sent", m.probes.Load())
	p.Counter("parsecrouter_probe_failures_total", "health probes that failed", m.probeFailures.Load())
	p.Counter("parsecrouter_scrape_errors_total", "per-shard /metrics scrapes that failed during aggregation", m.scrapeErrors.Load())
	p.Counter("parsecrouter_hotkey_promotions_total", "keys promoted to replicated across their HRW prefix", m.hotKeyPromotions.Load())
	p.Counter("parsecrouter_hotkey_demotions_total", "promoted keys demoted back to their primary shard", m.hotKeyDemotions.Load())
	p.Counter("parsecrouter_hotkey_warms_total", "replica warm-up requests completed after promotion", m.hotKeyWarms.Load())
	p.Counter("parsecrouter_hedges_total", "duplicate requests fired at the next replica", m.hedges.Load())
	p.Counter("parsecrouter_hedge_wins_total", "hedged duplicates that answered before the primary", m.hedgeWins.Load())
	p.Counter("parsecrouter_hedge_cancels_total", "losing hedge attempts observed context-cancelled", m.hedgeCancels.Load())
	p.Header("parsecrouter_sheds_total", "requests refused by admission control per class", "counter")
	p.Uint("parsecrouter_sheds_total", m.shedsInteractive.Load(), "class", "interactive")
	p.Uint("parsecrouter_sheds_total", m.shedsBulk.Load(), "class", "bulk")

	perShard("parsecrouter_shard_inflight", "forwards currently in flight per shard (admission control)", "gauge", func(sc *shardCounters) uint64 { return uint64(sc.inflight) })

	p.Header("parsecrouter_shard_eligible", "whether each shard currently receives traffic (live or probation)", "gauge")
	for _, st := range statuses {
		var v uint64
		if st.State != StateEjected {
			v = 1
		}
		p.Uint("parsecrouter_shard_eligible", v, "shard", st.URL, "state", st.StateName)
	}
	p.Gauge("parsecrouter_uptime_seconds", "seconds since the router started", time.Since(m.started).Seconds())
}
