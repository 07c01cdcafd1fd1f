package main

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded by the benchmark's own wrappers around the
// layers' public entry points (the client, the router handler, the
// router's forwarding RoundTripper, each shard's handler); nothing
// inside the program is instrumented. A request id and the parent span
// id travel between the wrappers in these headers, and inside the
// router in the request context.
const (
	hdrReq    = "X-Perfbench-Req"
	hdrParent = "X-Perfbench-Parent"
)

type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; they are written out when the run
// ends. Recording is switched on only for the traced phase.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// active reports whether spans are being recorded; a nil recorder
// never records.
func (r *recorder) active() bool { return r != nil && r.on.Load() }

func (r *recorder) newID() uint64 { return r.ids.Add(1) }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

type traceKey struct{}

// traceCtx is what a wrapper hands to the code it calls: the request id
// and the span that is now the parent.
type traceCtx struct{ req, parent uint64 }

func headerIDs(h http.Header) traceCtx {
	req, _ := strconv.ParseUint(h.Get(hdrReq), 10, 64)
	parent, _ := strconv.ParseUint(h.Get(hdrParent), 10, 64)
	return traceCtx{req, parent}
}

func setHeaderIDs(h http.Header, tc traceCtx) {
	h.Set(hdrReq, strconv.FormatUint(tc.req, 10))
	h.Set(hdrParent, strconv.FormatUint(tc.parent, 10))
}

// traceHandler records a span named name around next for every request
// that arrives with a request id, and passes the ids on in the request
// context.
func traceHandler(rec *recorder, name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rec.active() {
			next.ServeHTTP(w, r)
			return
		}
		tc := headerIDs(r.Header)
		if tc.req == 0 {
			next.ServeHTTP(w, r)
			return
		}
		id := rec.newID()
		start := rec.now()
		ctx := context.WithValue(r.Context(), traceKey{}, traceCtx{tc.req, id})
		next.ServeHTTP(w, r.WithContext(ctx))
		rec.add(span{ID: id, Parent: tc.parent, Req: tc.req, Name: name, Start: start, End: rec.now()})
	})
}

// traceTransport records a "forward" span around each round trip whose
// context carries trace ids (the router forwards with the inbound
// request's context), and passes the ids on to the shard in headers.
// Warm-up forwards run detached from any request and are not traced.
type traceTransport struct {
	rec  *recorder
	base http.RoundTripper
}

func (t traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tc, ok := req.Context().Value(traceKey{}).(traceCtx)
	if !ok || !t.rec.active() {
		return t.base.RoundTrip(req)
	}
	id := t.rec.newID()
	req = req.Clone(req.Context())
	setHeaderIDs(req.Header, traceCtx{tc.req, id})
	start := t.rec.now()
	resp, err := t.base.RoundTrip(req)
	t.rec.add(span{ID: id, Parent: tc.parent, Req: tc.req, Name: "forward", Start: start, End: t.rec.now()})
	return resp, err
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (overlapping children are counted once, and
// children are clipped to the parent).
func selfTimes(spans []span) map[uint64]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, reach int64
		reach = s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}
