package server

import (
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdg"
	"repro/internal/core"
	"repro/internal/latticeserve"
	"repro/internal/metrics"
	"repro/internal/prom"
)

// serverMetrics aggregates the service-side observability state: HTTP
// request counts by status, the batching/queueing histograms, and the
// machine-work counters (internal/metrics.Counters) summed over every
// parse the service has executed.
type serverMetrics struct {
	started time.Time

	mu       sync.Mutex
	requests map[int]uint64 // HTTP status → count
	work     metrics.Counters

	batches   atomic.Uint64 // coalesced batches executed
	parses    atomic.Uint64 // parses executed (jobs that reached a worker)
	timeouts  atomic.Uint64 // deadline-exceeded requests
	rejected  atomic.Uint64 // queue-full rejections
	panics    atomic.Uint64 // panics recovered from parse workers
	coalesced atomic.Uint64 // jobs that shared a batch with at least one other
	gangRuns  atomic.Uint64 // ganged simulator runs (≥2 sentences on one PE array)
	gangJobs  atomic.Uint64 // jobs served by a ganged run

	latticeRequests    atomic.Uint64 // lattice decodes completed (batch + final stream)
	latticePaths       atomic.Uint64 // candidate paths expanded across lattice decodes
	latticeTruncations atomic.Uint64 // lattice decodes that hit the path budget
	latticeStreamSlots atomic.Uint64 // slots appended over streaming connections

	queueWait    *prom.Histogram // seconds
	parseLatency *prom.Histogram // seconds
	batchSize    *prom.Histogram
}

func newServerMetrics() *serverMetrics {
	return &serverMetrics{
		started:      time.Now(),
		requests:     make(map[int]uint64),
		queueWait:    prom.NewHistogram(prom.LatencyBuckets()...),
		parseLatency: prom.NewHistogram(prom.LatencyBuckets()...),
		batchSize:    prom.NewHistogram(prom.BatchSizeBuckets()...),
	}
}

func (m *serverMetrics) countRequest(status int) {
	m.mu.Lock()
	m.requests[status]++
	m.mu.Unlock()
}

func (m *serverMetrics) addWork(c *metrics.Counters) {
	if c == nil {
		return
	}
	m.mu.Lock()
	m.work.Add(c)
	m.mu.Unlock()
}

// Stats is a point-in-time snapshot of the service counters, exposed
// for tests and for parsecload's end-of-run report.
type Stats struct {
	Batches       uint64
	Parses        uint64
	Timeouts      uint64
	Rejected      uint64
	Panics        uint64
	Coalesced     uint64
	GangRuns      uint64
	GangJobs      uint64
	MeanBatchSize float64
	CacheHits     uint64
	CacheMisses   uint64
	// Result-cache counters (zero when the cache is disabled).
	ResultCacheHits        uint64
	ResultCacheMisses      uint64
	ResultCacheEvictions   uint64
	ResultCacheExpirations uint64
	ResultCacheCoalesced   uint64
	// Lattice-serving counters (see internal/latticeserve).
	LatticeRequests       uint64
	LatticePathsExpanded  uint64
	LatticeTruncations    uint64
	LatticeSlotsStreamed  uint64
	LatticePrefixHits     uint64
	LatticePrefixMisses   uint64
	LatticePrefixEvicts   uint64
	LatticeFallbackParses uint64
}

func (m *serverMetrics) snapshot(cache *Cache, rc *resultCache, ls latticeserve.CacheStats) Stats {
	hits, misses := cache.Stats()
	rs := rc.stats()
	return Stats{
		Batches:       m.batches.Load(),
		Parses:        m.parses.Load(),
		Timeouts:      m.timeouts.Load(),
		Rejected:      m.rejected.Load(),
		Panics:        m.panics.Load(),
		Coalesced:     m.coalesced.Load(),
		GangRuns:      m.gangRuns.Load(),
		GangJobs:      m.gangJobs.Load(),
		MeanBatchSize: m.batchSize.Mean(),
		CacheHits:     hits,
		CacheMisses:   misses,

		ResultCacheHits:        rs.Hits,
		ResultCacheMisses:      rs.Misses,
		ResultCacheEvictions:   rs.Evictions,
		ResultCacheExpirations: rs.Expirations,
		ResultCacheCoalesced:   rs.Coalesced,

		LatticeRequests:       m.latticeRequests.Load(),
		LatticePathsExpanded:  m.latticePaths.Load(),
		LatticeTruncations:    m.latticeTruncations.Load(),
		LatticeSlotsStreamed:  m.latticeStreamSlots.Load(),
		LatticePrefixHits:     ls.Hits,
		LatticePrefixMisses:   ls.Misses,
		LatticePrefixEvicts:   ls.Evictions,
		LatticeFallbackParses: ls.Fallbacks,
	}
}

// writePrometheus renders every metric in Prometheus text exposition
// format (version 0.0.4).
func (m *serverMetrics) writePrometheus(w io.Writer, cache *Cache, rc *resultCache, ls latticeserve.CacheStats) {
	// Snapshot everything mu guards before writing: w is the scraper's
	// connection, and a write to it must never pace the request-count
	// hot path (lockorder enforces this).
	m.mu.Lock()
	statuses := make([]int, 0, len(m.requests))
	for s := range m.requests {
		statuses = append(statuses, s)
	}
	sort.Ints(statuses)
	statusCounts := make([]uint64, len(statuses))
	for i, s := range statuses {
		statusCounts[i] = m.requests[s]
	}
	work := m.work
	m.mu.Unlock()

	p := prom.NewWriter(w)
	p.Header("parsecd_requests_total", "HTTP requests by status code", "counter")
	for i, s := range statuses {
		p.Uint("parsecd_requests_total", statusCounts[i], "code", strconv.Itoa(s))
	}

	p.Counter("parsecd_parses_total", "parses executed by the worker pool", m.parses.Load())
	p.Counter("parsecd_batches_total", "coalesced batches executed", m.batches.Load())
	p.Counter("parsecd_coalesced_jobs_total", "jobs that shared a batch with another request", m.coalesced.Load())
	p.Counter("parsecd_gang_runs_total", "ganged simulator runs (several sentences on one PE array)", m.gangRuns.Load())
	p.Counter("parsecd_gang_jobs_total", "jobs served by a ganged simulator run", m.gangJobs.Load())
	p.Counter("parsecd_timeouts_total", "requests that exceeded their deadline", m.timeouts.Load())
	p.Counter("parsecd_queue_rejections_total", "requests rejected because a backend queue was full", m.rejected.Load())
	p.Counter("parsecd_panics_total", "panics recovered during parsing", m.panics.Load())

	hits, misses := cache.Stats()
	p.Counter("parsecd_grammar_cache_hits_total", "grammar cache hits", hits)
	p.Counter("parsecd_grammar_cache_misses_total", "grammar cache misses (compiles)", misses)

	rs := rc.stats()
	p.Counter("parsecd_result_cache_hits_total", "memoized parse results served without re-parsing", rs.Hits)
	p.Counter("parsecd_result_cache_misses_total", "parse requests that executed (not served from the result cache)", rs.Misses)
	p.Counter("parsecd_result_cache_evictions_total", "result-cache entries evicted at capacity", rs.Evictions)
	p.Counter("parsecd_result_cache_expirations_total", "result-cache entries dropped past their TTL", rs.Expirations)
	p.Counter("parsecd_result_cache_coalesced_inflight_total", "requests served by another request's in-flight parse", rs.Coalesced)

	lhits, lmisses := core.LayoutCacheStats()
	p.Counter("parsecd_layout_cache_hits_total", "PE-map plan cache hits (layouts reused)", lhits)
	p.Counter("parsecd_layout_cache_misses_total", "PE-map plan cache misses (layouts built)", lmisses)

	ehits, emisses, ecompiled := cdg.EvalCacheStats()
	p.Counter("parsecd_eval_compile_hits_total", "constraint bytecode compilations served from the memo", ehits)
	p.Counter("parsecd_eval_compile_misses_total", "constraint bytecode compilations performed", emisses)
	p.Counter("parsecd_eval_compiled_total", "constraints whose evaluation runs on the bytecode VM (vs the AST fallback)", ecompiled)

	p.Counter("parsecd_lattice_requests_total", "lattice decodes completed (batch and final stream updates)", m.latticeRequests.Load())
	p.Counter("parsecd_lattice_paths_expanded_total", "candidate paths expanded across lattice decodes", m.latticePaths.Load())
	p.Counter("parsecd_lattice_truncations_total", "lattice decodes truncated by the path budget", m.latticeTruncations.Load())
	p.Counter("parsecd_lattice_stream_slots_total", "slots appended over word-synchronous streaming connections", m.latticeStreamSlots.Load())
	p.Counter("parsecd_lattice_prefix_cache_hits_total", "prefix slots served from cached snapshots", ls.Hits)
	p.Counter("parsecd_lattice_prefix_cache_misses_total", "prefix snapshots computed", ls.Misses)
	p.Counter("parsecd_lattice_prefix_cache_evictions_total", "prefix snapshots evicted at capacity", ls.Evictions)
	p.Counter("parsecd_lattice_fallback_parses_total", "lattice paths parsed from scratch (extension-unstable grammar)", ls.Fallbacks)

	// The machine-work accounting every engine shares (internal/metrics),
	// summed over all parses served. Full literal names: metricflow
	// requires every exposed name to be statically constant so the
	// registry (and grep) can find it.
	p.Counter("parsecd_work_constraint_checks_total", "elementary constraint evaluations", work.ConstraintChecks)
	p.Counter("parsecd_work_matrix_writes_total", "arc-matrix bit writes", work.MatrixWrites)
	p.Counter("parsecd_work_support_checks_total", "role-value support tests", work.SupportChecks)
	p.Counter("parsecd_work_eliminations_total", "role values eliminated", work.Eliminations)
	p.Counter("parsecd_work_filter_iterations_total", "consistency-maintenance passes", work.FilterIterations)
	p.Counter("parsecd_work_pram_steps_total", "synchronous P-RAM steps", work.Steps)
	p.Counter("parsecd_work_maspar_cycles_total", "simulated MasPar cycles", work.Cycles)
	p.Counter("parsecd_work_maspar_scans_total", "segmented scan invocations", work.ScanOps)
	p.Counter("parsecd_work_maspar_router_ops_total", "router point-to-point sends", work.RouterOps)
	p.Counter("parsecd_work_maspar_broadcasts_total", "ACU broadcasts", work.Broadcasts)

	p.Histogram("parsecd_queue_wait_seconds", "time requests spent queued before a worker picked them up", m.queueWait)
	p.Histogram("parsecd_parse_latency_seconds", "parse execution time per request", m.parseLatency)
	p.Histogram("parsecd_batch_size", "requests coalesced per simulator run", m.batchSize)
	p.Gauge("parsecd_uptime_seconds", "seconds since the server started", time.Since(m.started).Seconds())
}
