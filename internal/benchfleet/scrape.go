package benchfleet

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

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
//     key, "<base>|le=<bound>" with the _bucket suffix dropped, so
//     quantiles can be re-derived from bucket deltas later.
func ParsePrometheus(r io.Reader) (map[string]float64, error) {
	fams, err := prom.Parse(r)
	if err != nil {
		return nil, err
	}
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
	return out, nil
}

// ScrapeInto fetches source's /metrics and stores every family into
// window w of the store. Scrape failures are returned, not fatal: a
// killed shard simply contributes no samples for the window.
func ScrapeInto(client *http.Client, st *Store, w int, source, baseURL string) error {
	resp, err := client.Get(baseURL + "/metrics")
	if err != nil {
		return fmt.Errorf("scrape %s: %w", source, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return fmt.Errorf("scrape %s: status %d", source, resp.StatusCode)
	}
	fams, err := ParsePrometheus(resp.Body)
	if err != nil {
		return fmt.Errorf("scrape %s: %w", source, err)
	}
	// Sorted iteration: SetSample appends columns on first sight, and
	// deterministic column-creation order keeps run artifacts
	// byte-stable for identical inputs.
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st.SetSample(w, source, name, fams[name])
	}
	return nil
}
