package benchjson

// LoadSummary is the single JSON object `parsecload -json` prints on
// stdout at the end of a run: the client-side accounting (throughput,
// latency quantiles, status/shard attribution, shed/backoff behaviour)
// plus the server-side counters scraped from /metrics, for scripts
// that drive parsecload. The fleet orchestrator does not read it: it
// drives load through internal/loadgen itself.
type LoadSummary struct {
	// Mode is "parse" or "lattice".
	Mode string `json:"mode"`
	// URL is the base URL the run drove.
	URL string `json:"url"`
	// Seed replays the run's request mix exactly.
	Seed int64 `json:"seed"`

	Requests int `json:"requests"`
	// Errors are transport-level failures (no HTTP response).
	Errors int `json:"errors"`
	// Sheds counts 429 responses (admission control / queue full).
	Sheds     int   `json:"sheds"`
	ElapsedNs int64 `json:"elapsed_ns"`
	// ThroughputRPS is completed responses per second of wall clock.
	ThroughputRPS float64 `json:"throughput_rps"`
	// BackoffNs is total worker time spent honoring Retry-After hints.
	BackoffNs int64 `json:"backoff_ns,omitempty"`

	Latency LoadQuantiles `json:"latency_ns"`

	// ByStatus counts responses per HTTP status code (keys are the
	// decimal codes; JSON objects need string keys).
	ByStatus map[string]int `json:"by_status,omitempty"`
	// ByShard attributes responses to the serving shard, from the
	// X-Parsec-Shard response header; empty against a bare parsecd.
	ByShard map[string]int `json:"by_shard,omitempty"`

	Server *LoadServerSide `json:"server,omitempty"`
	Ramp   *LoadRamp       `json:"ramp,omitempty"`
}

// LoadQuantiles are client-observed latency quantiles in nanoseconds.
type LoadQuantiles struct {
	P50 int64 `json:"p50"`
	P90 int64 `json:"p90"`
	P99 int64 `json:"p99"`
	Max int64 `json:"max"`
}

// LoadServerSide is what parsecload scraped back from the target's
// /metrics after the run (fleet-summed when the target is a router).
type LoadServerSide struct {
	Batches       uint64  `json:"batches,omitempty"`
	MeanBatchSize float64 `json:"mean_batch_size,omitempty"`

	CacheHits   uint64 `json:"result_cache_hits,omitempty"`
	CacheMisses uint64 `json:"result_cache_misses,omitempty"`

	LatticeRequests uint64 `json:"lattice_requests,omitempty"`
	LatticePaths    uint64 `json:"lattice_paths,omitempty"`
	PrefixHits      uint64 `json:"prefix_cache_hits,omitempty"`
	PrefixMisses    uint64 `json:"prefix_cache_misses,omitempty"`

	HotKeyPromotions uint64 `json:"hotkey_promotions,omitempty"`
	HotKeyDemotions  uint64 `json:"hotkey_demotions,omitempty"`
	Hedges           uint64 `json:"hedges,omitempty"`
	HedgeWins        uint64 `json:"hedge_wins,omitempty"`
	Sheds            uint64 `json:"sheds,omitempty"`
}

// LoadRamp is the closed-loop ramp mode's step-by-step record.
type LoadRamp struct {
	TargetP50Ns    int64          `json:"target_p50_ns"`
	Steps          []LoadRampStep `json:"steps"`
	BestConc       int            `json:"best_concurrency"`
	BestThroughput float64        `json:"best_throughput_rps"`
}

// LoadRampStep is one concurrency step of a ramp run.
type LoadRampStep struct {
	Concurrency   int     `json:"concurrency"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Ns         int64   `json:"p50_ns"`
	P90Ns         int64   `json:"p90_ns"`
	Errors        int     `json:"errors"`
	Sheds         int     `json:"sheds"`
	BackoffNs     int64   `json:"backoff_ns,omitempty"`
	WithinBudget  bool    `json:"within_budget"`
}
