package router

import (
	"sort"
	"strconv"

	"repro/internal/prom"
)

// /metrics aggregation: the router scrapes every eligible shard's
// Prometheus exposition and re-emits the parsecd_* families with every
// sample summed across shards — counters and histogram
// buckets/sums/counts add cleanly, so the fleet's exposition reads
// exactly like one big parsecd. Gauge families (uptime, queue depth)
// cannot be summed — a point-in-time value added across nodes is
// meaningless — so they are re-emitted as the max across shards under
// a `_max`-suffixed name: the hottest node's queue depth is exactly
// the backpressure signal a fleet operator needs, and the rename keeps
// the series honest about not being the one-node gauge.

// aggregate folds the shards' parsed scrapes into the fleet's
// families, sorted by name, each under its shards' header: counters and
// histograms summed, gauges as the max across shards under the
// `_max`-suffixed name.
func aggregate(scrapes [][]prom.Family) []prom.Family {
	byName := make(map[string]*prom.Family)
	index := make(map[string]int) // family name + series → position in Samples
	for _, fams := range scrapes {
		for _, pf := range fams {
			f := byName[pf.Name]
			if f == nil {
				f = &prom.Family{Name: pf.Name}
				byName[pf.Name] = f
			}
			if f.Help == "" {
				f.Help = pf.Help
			}
			if f.Type == "" {
				f.Type = pf.Type
			}
			for _, s := range pf.Samples {
				id := pf.Name + "\x00" + s.Name + "{" + s.Labels + "}"
				i, ok := index[id]
				switch {
				case !ok:
					index[id] = len(f.Samples)
					f.Samples = append(f.Samples, s)
				case f.Type == "gauge":
					f.Samples[i].Value = max(f.Samples[i].Value, s.Value)
				default:
					f.Samples[i].Value += s.Value
				}
			}
		}
	}

	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []prom.Family
	for _, n := range names {
		f := byName[n]
		if len(f.Samples) == 0 {
			continue
		}
		if f.Type == "gauge" {
			for i := range f.Samples {
				f.Samples[i].Name += "_max"
			}
			f.Name += "_max"
			if f.Help != "" {
				f.Help = "max across shards: " + f.Help
			}
		}
		sort.Slice(f.Samples, func(i, j int) bool { return seriesLess(f.Samples[i], f.Samples[j]) })
		out = append(out, *f)
	}
	return out
}

// seriesLess orders a family's series by name, then histogram buckets
// by ascending bound (+Inf last) and other series by label text.
func seriesLess(a, b prom.Sample) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	la, _ := a.Label("le")
	lb, _ := b.Label("le")
	fa, aerr := strconv.ParseFloat(la, 64)
	fb, berr := strconv.ParseFloat(lb, 64)
	if aerr == nil && berr == nil && fa != fb {
		return fa < fb
	}
	return a.Labels < b.Labels
}
