package benchfleet

import (
	"encoding/json"
	"fmt"
	"sync"
)

// Store is the run's columnar sample store. Two kinds of data land in
// it, both window-indexed (a window is one scrape interval; the
// orchestrator opens at least one window per phase):
//
//   - scraped metric families: one typed column per family, laid out
//     window-major with one stripe slot per source (every shard plus
//     the router), holding the family's cumulative value at the
//     window's closing scrape — so "during window w" is always a
//     column difference, never a re-scrape;
//   - per-request records: parallel typed slices (window, source,
//     status, latency-ns), the structured log of every request the
//     in-process driver sent, which exact quantile queries scan.
//
// The layout is deliberately column-per-metric rather than
// row-per-sample (the buildkite-logs parquet idea): post-hoc questions
// like "p99 by shard during the kill window" touch two or three
// columns, not every field of every sample.
type Store struct {
	mu sync.Mutex

	sources []string // shard names, then RouterSource; stripe order
	srcIdx  map[string]int

	windows []Window
	cols    map[string]*column

	// Request records, columnar. reqSrc is -1 when the response
	// carried no shard attribution (transport error or router-level
	// rejection).
	reqWindow []int32
	reqSrc    []int32
	reqStatus []int16
	reqLatNs  []int64
}

// RouterSource is the pseudo-source name the router's own /metrics
// scrape lands under.
const RouterSource = "router"

// Window is one scrape interval. StartNs/EndNs are offsets from the
// run start (zero in the in-process mode, which takes no wall-clock
// readings); Phase names the scenario phase the window belongs to.
type Window struct {
	Phase   string `json:"phase"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// column is one metric family's values: len(values) ==
// len(windows)*len(sources), window-major. present distinguishes a
// true zero from "this source never exposed the family".
type column struct {
	values  []float64
	present []bool
}

// NewStore creates a store for the given shard names (the router
// stripe is added automatically).
func NewStore(shards []string) *Store {
	st := &Store{
		sources: append(append([]string{}, shards...), RouterSource),
		srcIdx:  make(map[string]int, len(shards)+1),
		cols:    map[string]*column{},
	}
	for i, s := range st.sources {
		st.srcIdx[s] = i
	}
	return st
}

// Sources returns the stripe order: shards, then RouterSource.
func (s *Store) Sources() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string{}, s.sources...)
}

// Shards returns the shard names (Sources minus the router stripe).
func (s *Store) Shards() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string{}, s.sources[:len(s.sources)-1]...)
}

// OpenWindow appends a window for the named phase and returns its
// index. startNs is the window's offset from run start (0 when the
// caller doesn't track wall clock).
func (s *Store) OpenWindow(phase string, startNs int64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.windows = append(s.windows, Window{Phase: phase, StartNs: startNs})
	for _, c := range s.cols {
		c.grow(len(s.windows), len(s.sources))
	}
	return len(s.windows) - 1
}

// CloseWindow records the window's end offset.
func (s *Store) CloseWindow(w int, endNs int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if w >= 0 && w < len(s.windows) {
		s.windows[w].EndNs = endNs
	}
}

// Windows returns a copy of the window index.
func (s *Store) Windows() []Window {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Window{}, s.windows...)
}

// SetSample records family's cumulative value for source at window w's
// closing scrape.
func (s *Store) SetSample(w int, source, family string, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	si, ok := s.srcIdx[source]
	if !ok || w < 0 || w >= len(s.windows) {
		return
	}
	c := s.cols[family]
	if c == nil {
		c = &column{}
		s.cols[family] = c
	}
	c.grow(len(s.windows), len(s.sources))
	i := w*len(s.sources) + si
	c.values[i] = v
	c.present[i] = true
}

// RecordRequest appends one request record: the window it completed
// in, the shard that answered (empty when unattributed), the HTTP
// status (0 for a transport error), and the observed latency.
func (s *Store) RecordRequest(w int, shard string, status int, latNs int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	si := int32(-1)
	if i, ok := s.srcIdx[shard]; ok {
		si = int32(i)
	}
	s.reqWindow = append(s.reqWindow, int32(w))
	s.reqSrc = append(s.reqSrc, si)
	s.reqStatus = append(s.reqStatus, int16(status))
	s.reqLatNs = append(s.reqLatNs, latNs)
}

func (c *column) grow(windows, stride int) {
	want := windows * stride
	for len(c.values) < want {
		c.values = append(c.values, 0)
		c.present = append(c.present, false)
	}
}

// storeJSON is the persisted form of a Store — embedded under the
// report's "samples" key so BENCH_cluster.json alone answers post-hoc
// queries.
type storeJSON struct {
	Sources []string             `json:"sources"`
	Windows []Window             `json:"windows"`
	Columns map[string]colJSON   `json:"columns"`
	Reqs    map[string][]float64 `json:"requests,omitempty"`
}

type colJSON struct {
	Values  []float64 `json:"values"`
	Present []bool    `json:"present"`
}

// MarshalJSON persists the full columnar layout.
func (s *Store) MarshalJSON() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	doc := storeJSON{
		Sources: s.sources,
		Windows: s.windows,
		Columns: make(map[string]colJSON, len(s.cols)),
	}
	if doc.Windows == nil {
		doc.Windows = []Window{}
	}
	for f, c := range s.cols {
		doc.Columns[f] = colJSON{Values: c.values, Present: c.present}
	}
	if len(s.reqWindow) > 0 {
		doc.Reqs = map[string][]float64{
			"window": toF64FromI32(s.reqWindow),
			"source": toF64FromI32(s.reqSrc),
			"status": toF64FromI16(s.reqStatus),
			"lat_ns": toF64FromI64(s.reqLatNs),
		}
	}
	return json.Marshal(doc)
}

// UnmarshalJSON restores a persisted store.
func (s *Store) UnmarshalJSON(data []byte) error {
	var doc storeJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("benchfleet: decode samples: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sources = doc.Sources
	s.srcIdx = make(map[string]int, len(doc.Sources))
	for i, src := range doc.Sources {
		s.srcIdx[src] = i
	}
	s.windows = doc.Windows
	s.cols = make(map[string]*column, len(doc.Columns))
	for f, c := range doc.Columns {
		s.cols[f] = &column{values: c.Values, present: c.Present}
	}
	s.reqWindow = toI32(doc.Reqs["window"])
	s.reqSrc = toI32(doc.Reqs["source"])
	s.reqStatus = toI16(doc.Reqs["status"])
	s.reqLatNs = toI64(doc.Reqs["lat_ns"])
	n := len(s.reqWindow)
	if len(s.reqSrc) != n || len(s.reqStatus) != n || len(s.reqLatNs) != n {
		return fmt.Errorf("benchfleet: request columns have mismatched lengths")
	}
	return nil
}

func toF64FromI32(in []int32) []float64 {
	out := make([]float64, len(in))
	for i, v := range in {
		out[i] = float64(v)
	}
	return out
}

func toF64FromI16(in []int16) []float64 {
	out := make([]float64, len(in))
	for i, v := range in {
		out[i] = float64(v)
	}
	return out
}

func toF64FromI64(in []int64) []float64 {
	out := make([]float64, len(in))
	for i, v := range in {
		out[i] = float64(v)
	}
	return out
}

func toI32(in []float64) []int32 {
	out := make([]int32, len(in))
	for i, v := range in {
		out[i] = int32(v)
	}
	return out
}

func toI16(in []float64) []int16 {
	out := make([]int16, len(in))
	for i, v := range in {
		out[i] = int16(v)
	}
	return out
}

func toI64(in []float64) []int64 {
	out := make([]int64, len(in))
	for i, v := range in {
		out[i] = int64(v)
	}
	return out
}
