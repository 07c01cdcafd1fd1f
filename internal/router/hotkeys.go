package router

import (
	"sort"
	"sync"
)

// Hot-key replication. Rendezvous placement pins every key to exactly
// one shard, so a zipf head — a handful of keys carrying most of the
// traffic (E10 measured a 99.2% fleet hit rate) — saturates single
// nodes while their siblings idle. The fix stays inside the hash
// machinery that already exists: the HRW order of a key defines its
// replica set for free (the first R shards in placement order), so a
// key promoted "hot" round-robins across that R-prefix instead of
// always landing on rank 0. Demoted keys fall back to rank 0 — the
// primary — with no change of cache identity: the affinity key never
// changes, only which prefix member serves it.
//
// Hotness is measured with a space-saving counter (Metwally et al.)
// over a sliding request window: a fixed-capacity table of counts in
// which an unseen key evicts the current minimum and inherits its
// count as error bound. Every `window` observations all counts halve
// (the sliding decay), so a key must keep earning its share to stay
// promoted. All decisions are deterministic functions of the request
// sequence: ties break on the key string, never on map order or time.

// hotEntry is one space-saving counter row.
type hotEntry struct {
	count uint64
	// errBound is the count the key inherited when it evicted the
	// previous minimum — its estimate may overcount by at most this.
	errBound uint64
}

// replicaState tracks one promoted key.
type replicaState struct {
	// rr sequences the round-robin across the replica prefix.
	rr uint64
	// ready gates round-robin on warm-up: until the promotion warm
	// requests have completed, the key keeps routing to its primary so
	// no client request ever pays a replica's cold miss.
	ready bool
}

// hotTracker decides which keys are replicated and how a given request
// of a promoted key is spread across the replica prefix.
type hotTracker struct {
	top      int     // max promoted keys (K); 0 disables the tracker
	replicas int     // replica prefix length (R)
	share    float64 // request share that promotes a key
	window   int     // observations per decay epoch

	mu sync.Mutex
	// Guarded by mu: the counter table, the promoted set, and the
	// window position.
	counts   map[string]*hotEntry
	promoted map[string]*replicaState
	seen     uint64 // observations since the last decay
	total    uint64 // observations in the decayed window (≤ window)
}

// newHotTracker returns a tracker, or nil when replication is off.
func newHotTracker(top, replicas, window int, share float64) *hotTracker {
	if top <= 0 || replicas <= 1 {
		return nil
	}
	return &hotTracker{
		top:      top,
		replicas: replicas,
		share:    share,
		window:   window,
		counts:   make(map[string]*hotEntry),
		promoted: make(map[string]*replicaState),
	}
}

// capacity is the counter-table bound: enough rows that the top-K keys
// cannot be churned out by the tail (the standard space-saving sizing
// of several times K).
func (t *hotTracker) capacity() int {
	c := 8 * t.top
	if c < 64 {
		c = 64
	}
	return c
}

// hotDecision is what observe tells the forwarding path to do.
type hotDecision struct {
	// promoted reports a promotion happened on THIS observation; the
	// caller fires the warm-up requests and then calls warmed.
	promoted bool
	// replicated reports the key is promoted and warm: primary is the
	// round-robin pick from the replica prefix and next is the hedge
	// candidate (the following prefix member).
	replicated bool
	primary    string
	next       string
}

// observe accounts one request for key and resolves its routing given
// the key's full HRW order. It is the single entry point the parse
// path calls; all state transitions (count, promote, demote, decay)
// happen here, deterministically.
func (t *hotTracker) observe(key string, order []string, m *routerMetrics) hotDecision {
	d := hotDecision{primary: order[0]}
	if len(order) > 1 {
		d.next = order[1]
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	t.count(key)
	t.seen++
	t.total++

	// Promotion: the key's estimated share of the window crossed the
	// threshold and a slot is free. The error bound keeps a key that
	// merely inherited a big count from promoting spuriously.
	if _, hot := t.promoted[key]; !hot && len(t.promoted) < t.top {
		if e := t.counts[key]; e != nil && t.total > 0 {
			need := uint64(t.share * float64(t.window))
			if need == 0 {
				need = 1
			}
			if e.count-e.errBound >= need {
				t.promoted[key] = &replicaState{}
				m.hotKeyPromotions.Add(1)
				d.promoted = true
			}
		}
	}

	if rs, hot := t.promoted[key]; hot && rs.ready && len(order) > 1 {
		prefix := t.replicas
		if prefix > len(order) {
			prefix = len(order)
		}
		i := rs.rr % uint64(prefix)
		rs.rr++
		d.replicated = true
		d.primary = order[i]
		d.next = order[(i+1)%uint64(prefix)]
	}

	if t.seen >= uint64(t.window) {
		t.decay(m)
	}
	return d
}

// warmed marks a promoted key's replicas warm; round-robin starts on
// the next observation.
func (t *hotTracker) warmed(key string) {
	t.mu.Lock()
	if rs, ok := t.promoted[key]; ok {
		rs.ready = true
	}
	t.mu.Unlock()
}

// count applies the space-saving update for key. Caller holds mu.
func (t *hotTracker) count(key string) {
	if e, ok := t.counts[key]; ok {
		e.count++
		return
	}
	if len(t.counts) < t.capacity() {
		t.counts[key] = &hotEntry{count: 1}
		return
	}
	// Evict the minimum-count row; ties break on the smaller key so
	// the victim never depends on map order.
	victim := ""
	var vmin uint64
	for k, e := range t.counts {
		if victim == "" || e.count < vmin || (e.count == vmin && k < victim) {
			victim, vmin = k, e.count
		}
	}
	delete(t.counts, victim)
	t.counts[key] = &hotEntry{count: vmin + 1, errBound: vmin}
}

// decay halves every count (dropping rows that reach zero) and demotes
// promoted keys that no longer hold half the promotion share —
// hysteresis, so a key flickering around the threshold doesn't bounce
// its cache placement every window. Caller holds mu.
func (t *hotTracker) decay(m *routerMetrics) {
	for k, e := range t.counts {
		e.count /= 2
		e.errBound /= 2
		if e.count == 0 {
			delete(t.counts, k)
		}
	}
	t.seen = 0
	t.total /= 2
	keep := uint64(t.share * float64(t.window) / 2)
	if keep == 0 {
		keep = 1
	}
	// Deterministic demotion order (sorted keys) so metrics counts are
	// reproducible run to run.
	var demote []string
	for k := range t.promoted {
		e := t.counts[k]
		if e == nil || e.count < keep {
			demote = append(demote, k)
		}
	}
	sort.Strings(demote)
	for _, k := range demote {
		delete(t.promoted, k)
		m.hotKeyDemotions.Add(1)
	}
}

// replicaPrefix returns the first r shards of key's HRW order over
// eligible — the replica set replication and warm-up target.
func replicaPrefix(order []string, r int) []string {
	if r > len(order) {
		r = len(order)
	}
	return order[:r]
}
