package benchfleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"repro/internal/loadgen"
	"repro/internal/prom"
)

// ParsePrometheus reads one Prometheus text exposition into a flat
// family → value map:
//
//   - unlabeled series keep their name;
//   - labeled series are summed across label sets under the bare name
//     (parsecrouter_sheds_total{class="bulk"} + {class="interactive"}
//     → parsecrouter_sheds_total), matching how the router itself
//     aggregates fleet metrics;
//   - histogram buckets are the exception: each bound stays its own
//     key, "<base>|le=<bound>" with the _bucket suffix dropped, so the
//     artifact keeps every bucket's count.
func ParsePrometheus(r io.Reader) (map[string]float64, error) {
	fams, err := prom.Parse(r)
	if err != nil {
		return nil, err
	}
	return flatten(fams), nil
}

// flatten reduces parsed families to ParsePrometheus's flat map.
func flatten(fams []prom.Family) map[string]float64 {
	out := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			if base, isBucket := strings.CutSuffix(s.Name, "_bucket"); isBucket {
				if le, ok := s.Label("le"); ok {
					out[base+bucketKeySep+le] += s.Value
				}
				continue
			}
			out[s.Name] += s.Value
		}
	}
	return out
}

// bucketKeySep joins a histogram family name with its bucket bound in
// the store's column namespace ("<family>|le=<bound>").
const bucketKeySep = "|le="

// ScrapeInto fetches source's /metrics and stores every family into
// window w of the store. Scrape failures are returned, not fatal: a
// killed shard simply contributes no samples for the window.
func ScrapeInto(ctx context.Context, client *http.Client, st *Store, w int, source, baseURL string) error {
	fams, err := loadgen.Scrape(ctx, client, baseURL)
	if err != nil {
		return fmt.Errorf("scrape %s: %w", source, err)
	}
	flat := flatten(fams)
	// Sorted iteration: SetSample appends columns on first sight, and
	// deterministic column-creation order keeps run artifacts
	// byte-stable for identical inputs.
	names := make([]string, 0, len(flat))
	for name := range flat {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st.SetSample(w, source, name, flat[name])
	}
	return nil
}
