package benchfleet

import (
	"context"
	"net/http"

	"repro/internal/loadgen"
)

// mix maps phase p onto the shared load generator, so parsecload run
// with the phase's flags sends the phase's exact bytes. Lattice phases
// use parsecload's slot and alternative defaults over an 8-utterance
// pool.
func (p Phase) mix(backend string) loadgen.Mix {
	p = p.withDefaults()
	m := loadgen.Mix{Grammars: p.Grammars, Backend: backend, MaxLen: p.MaxLen}
	switch p.Mix {
	case "zipf":
		m.ZipfS, m.ZipfPool = p.ZipfS, p.ZipfPool
	case "lattice":
		m.Lattice, m.LatticeSlots, m.LatticeAlts, m.LatticeUtterances = true, 5, 3, 8
	}
	return m
}

// drivePhase fires the phase's request mix at its concurrency against
// the router and records every request into window w of the store —
// the structured per-request log the exact quantile queries scan.
// Wall-clock elapsed is measured only to report throughput; request
// attribution and membership stepping stay deterministic.
func drivePhase(ctx context.Context, client *http.Client, routerURL string, p Phase, backend string, seed int64, st *Store, w int) (PhaseResult, error) {
	mix := p.mix(backend)
	bodies, err := mix.Bodies(p.Requests, seed)
	if err != nil {
		return PhaseResult{}, err
	}
	res := PhaseResult{Name: p.Name, Requests: len(bodies), ByStatus: map[int]int{}}
	elapsed := loadgen.Drive(ctx, client, routerURL+mix.Endpoint(), bodies, p.Concurrency, func(o loadgen.Outcome) {
		st.RecordRequest(w, o.Shard, o.Status, o.Latency.Nanoseconds())
		if o.Err != nil {
			res.Errors++
		} else {
			res.ByStatus[o.Status]++
		}
	})
	res.ElapsedNs = elapsed.Nanoseconds()
	if res.ElapsedNs > 0 {
		res.ThroughputRPS = float64(len(bodies)) / elapsed.Seconds()
	}
	res.Lost = res.Requests - res.ByStatus[http.StatusOK]
	q := Query{Phase: p.Name}
	if v, ok := st.Quantile(q, 0.50); ok {
		res.P50Ns = v
	}
	if v, ok := st.Quantile(q, 0.99); ok {
		res.P99Ns = v
	}
	return res, nil
}
