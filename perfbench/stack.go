package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/router"
	"repro/internal/server"
)

// stack is the serving stack under test, in this process, behind
// loopback listeners: one or more parse servers and, for a fleet, a
// router in front of them.
type stack struct {
	servers []*server.Server
	router  *router.Router // nil unless the workload runs a fleet
	url     string         // where clients send requests
	client  *http.Client
	// transports are every client-side transport (the benchmark's and
	// the router's), closed before the servers shut down.
	transports []*http.Transport

	https []*http.Server
	done  sync.WaitGroup // one per Serve goroutine
}

// newTransport keeps enough idle connections per host for every client
// and hedge to reuse one instead of dialling per request.
func newTransport() *http.Transport {
	return &http.Transport{Proxy: nil, MaxIdleConnsPerHost: 16, DisableCompression: true}
}

// bootStack starts shards parse servers and, when fleet is set, a
// router over them configured as the hot-fleet workload specifies.
// With a recorder, every entry point is wrapped in a span.
func bootStack(shards int, fleet bool, rec *recorder) (*stack, error) {
	tr := newTransport()
	st := &stack{client: &http.Client{Transport: tr}, transports: []*http.Transport{tr}}
	var urls []string
	addrs := make(map[string]string) // shard host:port → listener address
	for i := 0; i < shards; i++ {
		srv := server.New(server.Config{ShardName: "s" + strconv.Itoa(i)})
		st.servers = append(st.servers, srv)
		var h http.Handler = srv.Handler()
		if rec != nil {
			h = traceHandler(rec, "server", h)
		}
		u, err := st.serve(h)
		if err != nil {
			st.close()
			return nil, err
		}
		urls = append(urls, u)
		addrs[fmt.Sprintf("shard%d.perfbench:80", i)] = strings.TrimPrefix(u, "http://")
	}
	st.url = urls[0]
	if fleet {
		// HRW placement hashes shard URLs. Naming the shards, rather than
		// their ephemeral loopback ports, keeps a seed's placement the
		// same from run to run; the router's transport dials the name's
		// listener.
		urls = urls[:0]
		for i := 0; i < shards; i++ {
			urls = append(urls, fmt.Sprintf("http://shard%d.perfbench", i))
		}
		tr := newTransport()
		var d net.Dialer
		tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
			if a, ok := addrs[addr]; ok {
				addr = a
			}
			return d.DialContext(ctx, network, addr)
		}
		st.transports = append(st.transports, tr)
		var rt http.RoundTripper = tr
		if rec != nil {
			rt = traceTransport{rec: rec, base: rt}
		}
		r, err := router.New(router.Config{
			Shards:        urls,
			ProbeInterval: -1, // membership is not under test
			ReplicateTop:  4,
			Hedge:         true,
			MaxInflight:   64,
			HotKeyWindow:  hotWindow,
			Client:        &http.Client{Transport: rt},
		})
		if err != nil {
			st.close()
			return nil, err
		}
		st.router = r
		var h http.Handler = r.Handler()
		if rec != nil {
			h = traceHandler(rec, "router", h)
		}
		if st.url, err = st.serve(h); err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}

func (st *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	st.https = append(st.https, hs)
	st.done.Add(1)
	go func() {
		defer st.done.Done()
		hs.Serve(ln) //nolint:errcheck // ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// close shuts the listeners (front first), waits for every Serve
// goroutine, then drains each server's worker pool. Idle client
// connections are closed first: http.Server.Shutdown waits up to 5 s
// for a dialled connection that never carried a request.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, tr := range st.transports {
		tr.CloseIdleConnections()
	}
	for i := len(st.https) - 1; i >= 0; i-- {
		st.https[i].Shutdown(ctx) //nolint:errcheck // best effort at exit
	}
	st.done.Wait()
	for _, s := range st.servers {
		s.Shutdown(ctx) //nolint:errcheck // no listener of its own; drains the pool
	}
}

// request is one HTTP request a workload sends: a /v1/parse of one
// sentence or a /v1/batch of several, all under one grammar.
type request struct {
	path    string
	grammar string
	sents   [][]string
	body    []byte
}

// source yields a client's next request. A closed loop stops only
// where mayStop is true, so a timed phase is made of whole rounds of a
// workload's input mix.
type source interface {
	next() (*request, error)
	mayStop() bool
}

// sample is one request's outcome.
type sample struct {
	req    *request
	status int // 0: transport error
	lat    time.Duration
	body   []byte // interned: identical bodies share one copy
	id     uint64 // trace request id (0 when untraced)
	round  int    // the phase round it was sent in
}

// collector is one client's view of a phase.
type collector struct {
	samples []sample
	bodies  map[string][]byte
	buf     bytes.Buffer
}

// post sends r and waits for the last byte of the response body; the
// latency covers exactly that.
func (c *collector) post(st *stack, r *request, rec *recorder) {
	hreq, err := http.NewRequest(http.MethodPost, st.url+r.path, bytes.NewReader(r.body))
	if err != nil {
		c.samples = append(c.samples, sample{req: r})
		return
	}
	hreq.Header.Set("Content-Type", "application/json")
	var tc traceCtx
	var t0 int64
	if rec.active() {
		tc = traceCtx{req: rec.newID(), parent: rec.newID()}
		setHeaderIDs(hreq.Header, tc)
		t0 = rec.now()
	}
	start := time.Now()
	resp, err := st.client.Do(hreq)
	if err != nil {
		c.samples = append(c.samples, sample{req: r, lat: time.Since(start)})
		return
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if rec.active() {
		rec.add(span{ID: tc.parent, Req: tc.req, Name: "client", Start: t0, End: rec.now()})
	}
	s := sample{req: r, status: resp.StatusCode, lat: lat, id: tc.req}
	if err != nil {
		s.status = 0
	} else {
		s.body = c.intern(c.buf.Bytes())
	}
	c.samples = append(c.samples, s)
}

func (c *collector) intern(b []byte) []byte {
	if v, ok := c.bodies[string(b)]; ok {
		return v
	}
	v := bytes.Clone(b)
	c.bodies[string(v)] = v
	return v
}

// phase is what one closed-loop run of the clients measured.
type phase struct {
	wall    time.Duration // the rounds' time, without the slowness measures
	rounds  []round
	samples []sample
	alloc   uint64 // TotalAlloc delta over the phase, bytes
	server  server.Stats
	router  router.Stats
}

// round is one stretch of a phase between two slowness measures.
type round struct {
	wall time.Duration
	slow float64 // the mean of the measures before and after it
}

// drive runs one closed loop per source, in rounds of at least
// roundLen, until the rounds add up to d; a client sends its next
// request only when the previous one has been answered, and ends a
// round only where its source may stop, so a parse workload's round
// holds whole blocks of lengths. Between rounds every client is idle
// and the host's slowness is measured. With limit > 0 the phase is one
// unmeasured round in which each client sends limit requests.
func (st *stack) drive(sources []source, d time.Duration, limit int, rec *recorder) (*phase, error) {
	s0, r0 := st.stats()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cols := make([]*collector, len(sources))
	for i := range cols {
		cols[i] = &collector{bodies: make(map[string][]byte)}
	}
	errs := make([]error, len(sources))
	p := &phase{}
	slow := 1.0
	if limit == 0 {
		slow = slowness()
	}
	for p.wall < d {
		start := time.Now()
		deadline := start.Add(roundLen)
		n := len(p.rounds)
		var wg sync.WaitGroup
		for i, src := range sources {
			wg.Add(1)
			go func(c *collector, src source, errp *error) {
				defer wg.Done()
				for i := 0; limit == 0 || i < limit; i++ {
					if limit == 0 && src.mayStop() && !time.Now().Before(deadline) {
						break
					}
					r, err := src.next()
					if err != nil {
						*errp = err
						return
					}
					c.post(st, r, rec)
					c.samples[len(c.samples)-1].round = n
				}
			}(cols[i], src, &errs[i])
		}
		wg.Wait()
		wall := time.Since(start)
		if err := errors.Join(errs...); err != nil {
			return nil, err
		}
		p.wall += wall
		if limit > 0 {
			p.rounds = append(p.rounds, round{wall, 1})
			break
		}
		after := slowness()
		p.rounds = append(p.rounds, round{wall, (slow + after) / 2})
		slow = after
	}
	runtime.ReadMemStats(&m1)
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	for _, c := range cols {
		p.samples = append(p.samples, c.samples...)
	}
	s1, r1 := st.stats()
	p.server = serverDelta(s0, s1)
	p.router = routerDelta(r0, r1)
	return p, nil
}

// send posts requests one at a time outside any measured phase (set-up
// warming and priming) and fails on the first answer that is not 200.
func (st *stack) send(reqs []*request) error {
	c := &collector{bodies: make(map[string][]byte)}
	for _, r := range reqs {
		c.post(st, r, nil)
		if s := c.samples[len(c.samples)-1]; s.status != http.StatusOK {
			return fmt.Errorf("set-up request %s %q: status %d", r.path, r.sents, s.status)
		}
	}
	return nil
}

// stats sums the counters of every shard and snapshots the router's.
func (st *stack) stats() (server.Stats, router.Stats) {
	var sum server.Stats
	for _, s := range st.servers {
		x := s.Stats()
		sum.Parses += x.Parses
		sum.Timeouts += x.Timeouts
		sum.Rejected += x.Rejected
		sum.GangRuns += x.GangRuns
		sum.GangJobs += x.GangJobs
		sum.ResultCacheHits += x.ResultCacheHits
		sum.ResultCacheMisses += x.ResultCacheMisses
	}
	var rs router.Stats
	if st.router != nil {
		rs = st.router.Stats()
	}
	return sum, rs
}

func serverDelta(a, b server.Stats) server.Stats {
	return server.Stats{
		Parses:            b.Parses - a.Parses,
		Timeouts:          b.Timeouts - a.Timeouts,
		Rejected:          b.Rejected - a.Rejected,
		GangRuns:          b.GangRuns - a.GangRuns,
		GangJobs:          b.GangJobs - a.GangJobs,
		ResultCacheHits:   b.ResultCacheHits - a.ResultCacheHits,
		ResultCacheMisses: b.ResultCacheMisses - a.ResultCacheMisses,
	}
}

func routerDelta(a, b router.Stats) router.Stats {
	d := router.Stats{
		Requests:         make(map[string]uint64),
		Failovers:        b.Failovers - a.Failovers,
		Hedges:           b.Hedges - a.Hedges,
		ShedsInteractive: b.ShedsInteractive - a.ShedsInteractive,
		ShedsBulk:        b.ShedsBulk - a.ShedsBulk,
	}
	for shard, n := range b.Requests {
		d.Requests[shard] = n - a.Requests[shard]
	}
	return d
}

// heapInuseMB forces a collection and returns HeapInuse: what the
// stack's caches and arenas retain, once the caller has dropped its
// per-request records. The second collection frees what the first
// only moved to sync.Pool victim caches.
func heapInuseMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}
