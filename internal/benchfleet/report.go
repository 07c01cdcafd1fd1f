package benchfleet

import (
	"encoding/json"
	"fmt"
	"runtime"

	"repro/internal/benchjson"
)

// Exposed metric family names the report reduces over. These are the
// literal names internal/server and internal/router register, verified
// by the metricflow lint.
const (
	famFailovers = "parsecrouter_failovers_total"
	famHedges    = "parsecrouter_hedges_total"
	famSheds     = "parsecrouter_sheds_total"
)

// BuildReport reduces a completed run to the shared benchjson schema:
// one result row for the whole run, one per phase, and one per
// (phase, shard) pair — names are "Fleet/<scenario>/total",
// ".../phase=<p>", and ".../phase=<p>/shard=<s>" — with the full
// columnar store embedded under "samples" so the artifact answers
// post-hoc queries on its own.
func BuildReport(res *RunResult) (*benchjson.Report, error) {
	st := res.Store
	sc := res.Scenario
	rep := &benchjson.Report{
		Goos:   runtime.GOOS,
		Goarch: runtime.GOARCH,
		Pkg:    "repro/internal/benchfleet",
	}

	var totalReqs, totalLost int
	var totalNs int64
	for _, pr := range res.Phases {
		totalReqs += pr.Requests
		totalLost += pr.Lost
		totalNs += pr.ElapsedNs
	}
	all := Query{}
	total := benchjson.Result{
		Name:       "Fleet/" + sc.Name + "/total",
		Iterations: int64(totalReqs),
	}
	if totalReqs > 0 && totalNs > 0 {
		total.NsPerOp = float64(totalNs) / float64(totalReqs)
		total.SentsPer = float64(totalReqs) / (float64(totalNs) / 1e9)
	}
	if v, ok := st.Quantile(all, 0.50); ok {
		total.P50Ns = float64(v)
	}
	if v, ok := st.Quantile(all, 0.99); ok {
		total.P99Ns = float64(v)
	}
	fillSpanMetrics(&total, st, all)
	rep.Results = append(rep.Results, total)

	for _, pr := range res.Phases {
		q := Query{Phase: pr.Name}
		row := benchjson.Result{
			Name:       "Fleet/" + sc.Name + "/phase=" + pr.Name,
			Iterations: int64(pr.Requests),
			SentsPer:   pr.ThroughputRPS,
			P50Ns:      float64(pr.P50Ns),
			P99Ns:      float64(pr.P99Ns),
		}
		if pr.Requests > 0 && pr.ElapsedNs > 0 {
			row.NsPerOp = float64(pr.ElapsedNs) / float64(pr.Requests)
		}
		fillSpanMetrics(&row, st, q)
		rep.Results = append(rep.Results, row)

		for _, shard := range st.Shards() {
			sq := Query{Phase: pr.Name, Shard: shard}
			srow := benchjson.Result{
				Name:       "Fleet/" + sc.Name + "/phase=" + pr.Name + "/shard=" + shard,
				Iterations: int64(st.CountRequests(sq, nil)),
			}
			if srow.Iterations == 0 {
				// The shard was dark for the whole phase (killed before
				// it, typically); an all-zero row only adds noise.
				continue
			}
			if v, ok := st.Quantile(sq, 0.99); ok {
				srow.P99Ns = float64(v)
			}
			if v, ok := st.Quantile(sq, 0.50); ok {
				srow.P50Ns = float64(v)
			}
			if hr, ok := st.HitRate(shard, q); ok {
				srow.HitRate = hr
			}
			rep.Results = append(rep.Results, srow)
		}
	}

	samples, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("benchfleet: marshal samples: %w", err)
	}
	rep.Samples = samples
	if err := benchjson.Validate(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// fillSpanMetrics adds the store-derived metrics shared by the total
// and per-phase rows: fleet hit rate and the router's failover, hedge,
// and shed deltas over the span.
func fillSpanMetrics(row *benchjson.Result, st *Store, q Query) {
	if hr, ok := st.HitRate("", q); ok {
		row.HitRate = hr
	}
	if v, ok := st.Delta(famFailovers, RouterSource, q); ok {
		row.Failovers = v
	}
	if v, ok := st.Delta(famHedges, RouterSource, q); ok {
		row.Hedges = v
	}
	if v, ok := st.Delta(famSheds, RouterSource, q); ok {
		row.Sheds = v
	}
}

// LoadReport reads a BENCH_cluster.json document and re-hydrates the
// embedded sample store (nil when the report carries no samples) — the
// query side of cmd/parsecbench.
func LoadReport(data []byte) (*benchjson.Report, *Store, error) {
	rep, err := benchjson.ValidateBytes(data)
	if err != nil {
		return nil, nil, err
	}
	if len(rep.Samples) == 0 {
		return rep, nil, nil
	}
	st := &Store{}
	if err := st.UnmarshalJSON(rep.Samples); err != nil {
		return nil, nil, err
	}
	return rep, st, nil
}
