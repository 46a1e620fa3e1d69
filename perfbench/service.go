package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/logic/bench"
	"repro/internal/obs"
	"repro/internal/service"
)

// svcReq is one distinct request of the service stream.
type svcReq struct {
	path string
	body []byte
}

func (q svcReq) key() string { return q.path + " " + string(q.body) }

func request(path string, payload map[string]any) svcReq {
	b, _ := json.Marshal(payload) // strings always marshal
	return svcReq{path: path, body: b}
}

// warmMix weighs the warm phase's endpoints: simulate 50 %, validate
// 25 %, flow 25 %. Simulate and validate keep cmd/benchserve's 2:1 warm
// mix. The flow share is this benchmark's own choice: no committed client
// sends flows.
var warmMix = []struct {
	path   string
	weight int
}{{"/v1/simulate", 2}, {"/v1/gates/validate", 1}, {"/v1/flow", 1}}

// slowValidate and slowFlows name the requests whose cold solve takes a
// second or more: the AND, NAND, NOR and XNOR validations (gate-library
// measures them) and two Table-1 flows (flow-table1 measures them). With
// them a cold pass takes about 25 s; without them about 1.5 s, so that a
// run can repeat it and op_geomean_ms rests on more than one sample per
// request.
var (
	slowValidate = map[string]bool{"and": true, "nand": true, "nor": true, "xnor": true}
	slowFlows    = map[string]bool{"majority_5_r1": true, "cm82a_5": true}
)

// stream yields the seeded request sequences. A cold pass is
// cmd/benchserve's, plus the Table-1 flows: every library tile on
// /v1/simulate and /v1/gates/validate and every Table-1 benchmark on
// /v1/flow, less the slow requests, each sent once in a seeded order. The
// warm phase draws an endpoint by warmMix, then one of that endpoint's
// cold-pass requests uniformly. The sequences depend only on the seed, and
// the warm mix does not depend on how many requests a run reaches.
type stream struct {
	rng      *rand.Rand
	distinct []svcReq
	byPath   map[string][]svcReq
	total    int // sum of warmMix weights
}

func newStream(gates []string, seed int64) *stream {
	s := &stream{rng: rand.New(rand.NewSource(seed)), byPath: map[string][]svcReq{}}
	for _, g := range gates {
		s.byPath["/v1/simulate"] = append(s.byPath["/v1/simulate"], request("/v1/simulate", map[string]any{"gate": g}))
		if fn, _, _ := strings.Cut(g, ":"); !slowValidate[fn] {
			s.byPath["/v1/gates/validate"] = append(s.byPath["/v1/gates/validate"], request("/v1/gates/validate", map[string]any{"gate": g}))
		}
	}
	for _, b := range bench.Benchmarks {
		if !slowFlows[b.Name] {
			s.byPath["/v1/flow"] = append(s.byPath["/v1/flow"], request("/v1/flow", map[string]any{"bench": b.Name}))
		}
	}
	for _, m := range warmMix {
		s.distinct = append(s.distinct, s.byPath[m.path]...)
		s.total += m.weight
	}
	return s
}

// coldPass returns a source of every distinct request once, in a seeded
// order.
func (s *stream) coldPass() func() (svcReq, bool) {
	order := shuffled(s.distinct, s.rng)
	return func() (svcReq, bool) {
		if len(order) == 0 {
			return svcReq{}, false
		}
		q := order[0]
		order = order[1:]
		return q, true
	}
}

// nextWarm returns the next warm-phase request.
func (s *stream) nextWarm() (svcReq, bool) {
	w := s.rng.Intn(s.total)
	for _, m := range warmMix {
		if w < m.weight {
			reqs := s.byPath[m.path]
			return reqs[s.rng.Intn(len(reqs))], true
		}
		w -= m.weight
	}
	panic("unreachable")
}

// harness is an in-process bestagond server on a loopback port.
type harness struct {
	srv    *service.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

// startHarness boots the server with two workers, as the daemon runs on a
// two-core host.
func startHarness() (*harness, error) {
	srv, err := service.New(service.Config{Workers: 2})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background()) // nothing was submitted
		return nil, err
	}
	h := &harness{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		served: make(chan error, 1),
	}
	go func() { h.served <- h.hs.Serve(ln) }()
	return h, nil
}

// gates lists the library tiles through the API.
func (h *harness) gates() ([]string, error) {
	resp, err := h.client.Get(h.base + "/v1/gates")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var listing struct {
		Gates []string `json:"gates"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		return nil, fmt.Errorf("GET /v1/gates: %w", err)
	}
	return listing.Gates, nil
}

// close stops the HTTP server and drains the job queue.
func (h *harness) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	<-h.served
	if derr := h.srv.Drain(ctx); err == nil {
		err = derr
	}
	h.client.CloseIdleConnections()
	return err
}

// post sends one request and returns the body and the X-Cache header.
func (h *harness) post(q svcReq) ([]byte, string, error) {
	resp, err := h.client.Post(h.base+q.path, "application/json", bytes.NewReader(q.body))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, resp.Header.Get("X-Cache"), nil
}

// load drives one server with a single closed-loop client and checks
// that every repeat of a request is byte-identical to its first response.
type load struct {
	h                    *harness
	attempted, completed int
	errs                 []string
	spans                []span
	first                map[string][]byte
}

// phase sends requests from next, each after the previous reply, until
// next has no request left or the deadline passes. It files every
// latency in all, and those of cache hits (X-Cache other than miss) in
// hits; byInput, when not nil, gets each latency under its request.
func (l *load) phase(name string, next func() (svcReq, bool), deadline time.Time, all, hits *obs.Histogram, byInput map[string][]float64) {
	for i := 0; time.Now().Before(deadline); i++ {
		q, ok := next()
		if !ok {
			return
		}
		l.attempted++
		s0 := time.Now()
		body, cache, err := l.h.post(q)
		d := time.Since(s0)
		if err != nil {
			l.errs = append(l.errs, fmt.Sprintf("%s %s: %v", q.path, q.body, err))
			continue
		}
		l.completed++
		all.Observe(ms(d))
		k := q.key()
		if byInput != nil {
			byInput[k] = append(byInput[k], ms(d))
		}
		if cache == "miss" {
			l.spans = append(l.spans, span{
				Trace: fmt.Sprintf("%s/%d", name, i), Name: q.path,
				StartMS: ms(s0.Sub(start)), DurMS: ms(d),
			})
		} else {
			hits.Observe(ms(d))
		}
		prev, seen := l.first[k]
		if !seen {
			l.first[k] = body
		} else if !bytes.Equal(prev, body) {
			l.errs = append(l.errs, fmt.Sprintf("%s %s: response differs from the first one (cache %s)", q.path, q.body, cache))
		}
	}
}

// rounds is how many fresh servers a run fills from cold and then reads
// warm, each for an equal share of --seconds.
const rounds = 4

// minWarm is the shortest warm phase of a round, for runs whose cold
// passes take most of --seconds.
const minWarm = 500 * time.Millisecond

// runService runs service-mixed in rounds, each on a fresh server. In
// each, one client first sends every distinct request once, as
// cmd/benchserve's cold pass does, then repeats the requests by warmMix
// until the round's share of --seconds has passed. Spreading the cold
// passes over the run exposes them to the same host conditions as the
// warm phases. The cold passes give sweep_s and op_geomean_ms; the warm
// phases give ops_per_s.
func runService(r *run) {
	var setupErr error
	h, resample := setup(r, func() *harness {
		h, err := startHarness()
		if err != nil {
			setupErr = err
		}
		return h
	}, func(h *harness) {
		if h == nil {
			return
		}
		if err := h.close(); err != nil {
			setupErr = err
		}
	})
	defer func() {
		if h == nil {
			return
		}
		if err := h.close(); err != nil {
			r.fail("server shutdown: %v", err)
		}
	}()
	if !r.op("starting the server", setupErr) {
		return
	}
	gates, err := h.gates()
	if !r.op("listing the gates", err) {
		return
	}

	st := newStream(gates, r.seed)
	stats := newPassStats()
	t0 := time.Now()
	cold, warmAll, warm := newLatencyHist(), newLatencyHist(), newLatencyHist()
	for p := 0; p < rounds; p++ {
		if p > 0 {
			if err := h.close(); err != nil {
				r.fail("server shutdown: %v", err)
			}
			h, err = startHarness()
			if !r.op("starting the server", err) {
				return
			}
		}
		l := &load{h: h, first: map[string][]byte{}}
		c0 := time.Now()
		l.phase(fmt.Sprintf("cold%d", p), st.coldPass(), c0.Add(time.Hour), cold, nil, stats.perInput)
		w0 := time.Now()
		deadline := t0.Add(r.seconds * time.Duration(p+1) / rounds)
		if d := w0.Add(minWarm); d.After(deadline) {
			deadline = d
		}
		l.phase(fmt.Sprintf("warm%d", p), st.nextWarm, deadline, warmAll, warm, nil)
		stats.passes = append(stats.passes, w0.Sub(c0).Seconds())
		stats.loopTime += time.Since(w0)
		r.collect(l)
		resample()
		if setupErr != nil {
			r.op("timing the server's set-up", setupErr)
			return
		}
	}
	stats.loopOps = warmAll.Count()
	fmt.Fprintf(os.Stderr, "perfbench: %d rounds: cold %d requests, warm %d in %.1f s\n",
		rounds, cold.Count(), stats.loopOps, stats.loopTime.Seconds())
	if warm.Count() < 1000 {
		fmt.Fprintf(os.Stderr, "perfbench: warning: %d warm cache hits, fewer than ten beyond p99\n", warm.Count())
	}

	if !r.trace {
		r.setEndToEnd(stats)
		return
	}
	r.set("cache.hit_share", h.srv.CacheStats().HitRate(), "share")
	r.set("service.warm_p50_ms", warm.Quantile(0.5), "ms")
	r.set("service.warm_p99_ms", warm.Quantile(0.99), "ms")
	coldSolves, waitP50, err := h.scrapeMetrics()
	if err != nil {
		r.fail("GET /metrics: %v", err)
		return
	}
	r.set("service.cold_solves", coldSolves, "count")
	r.set("service.queue_wait_p50_ms", waitP50*1e3, "ms")
}

// collect adds one round's operations, errors and spans to the result.
func (r *run) collect(l *load) {
	r.res.Attempted += l.attempted
	r.res.Failed += l.attempted - l.completed
	for i, e := range l.errs {
		if i == 5 {
			r.fail("... %d more", len(l.errs)-i)
			break
		}
		r.fail("%s", e)
	}
	r.spans = append(r.spans, l.spans...)
}

// scrapeMetrics reads the server's /metrics exposition and returns the
// total of jobs_cold_solves_total and the median of queue_wait_seconds.
func (h *harness) scrapeMetrics() (coldSolves, waitP50 float64, err error) {
	resp, err := h.client.Get(h.base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	type bucket struct{ le, cum float64 }
	var buckets []bucket
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		v, perr := strconv.ParseFloat(value, 64)
		if perr != nil {
			continue
		}
		switch {
		case strings.HasPrefix(name, "jobs_cold_solves_total{"):
			coldSolves += v
		case strings.HasPrefix(name, `queue_wait_seconds_bucket{le="`):
			le, perr := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(name, `queue_wait_seconds_bucket{le="`), `"}`), 64)
			if perr == nil {
				buckets = append(buckets, bucket{le, v})
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if len(buckets) == 0 {
		return 0, 0, fmt.Errorf("no queue_wait_seconds histogram")
	}
	// The exposition's buckets are cumulative and end with +Inf.
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	var bounds []float64
	var counts []int64
	prev := 0.0
	for _, b := range buckets {
		if !math.IsInf(b.le, 1) {
			bounds = append(bounds, b.le)
		}
		counts = append(counts, int64(b.cum-prev))
		prev = b.cum
	}
	return coldSolves, obs.QuantileFromBuckets(bounds, counts, 0.5), nil
}
