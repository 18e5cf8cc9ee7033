package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"syscall"
	"time"

	"rayfade/internal/obs"
)

// Response classes: the request form combined with the daemon's X-Cache
// header.
const (
	classHitInline = "hit_inline"
	classHitRef    = "hit_ref"
	classMiss      = "miss"
	classUpload    = "upload"
	classSchedule  = "schedule"
	classUnknown   = "unknown"
)

// classify names a response's class. Estimates split by cache outcome (a
// singleflight follower carries X-Cache: miss, and counts as one); uploads
// and schedules are classes of their own.
func classify(form, xcache string) string {
	switch form {
	case formUpload:
		return classUpload
	case formSchedule:
		return classSchedule
	}
	switch xcache {
	case "hit":
		if form == formInline {
			return classHitInline
		}
		if form == formRef {
			return classHitRef
		}
	case "miss":
		return classMiss
	}
	return classUnknown
}

// sample is one sent request. Times are offsets from the start of its
// step.
type sample struct {
	request
	class  string
	sched  time.Duration // when it was due
	lag    time.Duration // how late the dispatcher handed it on
	send   time.Duration // when a connection started sending it
	done   time.Duration // when its response body was read
	status int
	failed bool
}

// latencyMS is the time from the scheduled send to the response, or +Inf
// for a failed request, which misses every latency limit.
func (s sample) latencyMS() float64 {
	if s.failed {
		return math.Inf(1)
	}
	return float64(s.done-s.sched) / 1e6
}

// generator sends planned requests open loop over a fixed number of
// keep-alive connections and checks every response.
type generator struct {
	base   string
	conns  int
	client *http.Client
	refs   []string // expected topology_ref per topology index

	mu      sync.Mutex
	digests map[string][32]byte // logical key -> digest of its first 200 body
	bodies  map[string][]byte   // logical key -> first 200 body
}

func newGenerator(base string, conns int, refs []string) *generator {
	return &generator{
		base:  base,
		conns: conns,
		client: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		refs:    refs,
		digests: map[string][32]byte{},
		bodies:  map[string][]byte{},
	}
}

// close releases the generator's idle connections.
func (g *generator) close() { g.client.CloseIdleConnections() }

// retarget points the generator at another daemon, keeping its recorded
// bodies so checks span daemons.
func (g *generator) retarget(base string) {
	g.client.CloseIdleConnections()
	g.base = base
}

// run sends plan open loop: a dispatcher releases each request at its
// scheduled time, and g.conns senders take them in order. A request waits
// for a free connection, and that wait counts in its latency. spans, when
// non-nil, records one span per request.
func (g *generator) run(plan []planned, spans *obs.Tracer) []sample {
	out := make([]sample, len(plan))
	lags := make([]time.Duration, len(plan))
	queue := make(chan int, len(plan)) // one slot per send: the dispatcher never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < g.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				out[i] = g.send(start, plan[i], spans)
			}
		}()
	}
	for i, p := range plan {
		sleepUntil(start.Add(p.at))
		lags[i] = time.Since(start) - p.at
		queue <- i
	}
	close(queue)
	wg.Wait()
	for i := range out {
		out[i].lag = lags[i]
	}
	return out
}

// sleepUntil blocks until t. It sleeps in nanosleep(2) rather than
// time.Sleep: the Go timer of an otherwise idle process wakes about half a
// millisecond late, which would read as latency of every request, while
// nanosleep wakes within about 0.1 ms.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// send performs one request and checks its response.
func (g *generator) send(start time.Time, p planned, spans *obs.Tracer) sample {
	s := sample{request: p.request, sched: p.at, send: time.Since(start), class: classUnknown}
	var sp *obs.Span
	if spans != nil {
		_, sp = obs.StartDetached(obs.WithTracer(context.Background(), spans), "client."+p.form)
		defer sp.End()
	}
	resp, err := g.client.Post(g.base+p.path, "application/json", bytes.NewReader(p.body))
	if err != nil {
		s.done, s.failed = time.Since(start), true
		sp.SetAttr("error", err.Error())
		return s
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done = time.Since(start)
	s.status = resp.StatusCode
	s.class = classify(p.form, resp.Header.Get("X-Cache"))
	sp.SetAttr("class", s.class)
	sp.SetAttr("status", s.status)
	if err != nil || resp.StatusCode != http.StatusOK || !g.check(p.request, body) {
		s.failed = true
	}
	return s
}

// check verifies one 200 body: an upload must return the topology's
// content-derived ref, and every other body must equal the first body seen
// for its logical key, whichever form carried the request.
func (g *generator) check(r request, body []byte) bool {
	if r.form == formUpload {
		var up struct {
			TopologyRef string `json:"topology_ref"`
			Links       int    `json:"links"`
		}
		return json.Unmarshal(body, &up) == nil && up.TopologyRef == g.refs[r.topo] && up.Links == mixLinks
	}
	sum := sha256.Sum256(body)
	g.mu.Lock()
	defer g.mu.Unlock()
	prev, seen := g.digests[r.key]
	if !seen {
		g.digests[r.key] = sum
		g.bodies[r.key] = body
		return true
	}
	return prev == sum
}

// warmUp registers every topology over all connections, so ref requests
// resolve and every connection is open before timing starts.
func (g *generator) warmUp(p *population) ([]sample, error) {
	plan := make([]planned, len(p.topos))
	for t := range p.topos {
		plan[t] = planned{request: request{form: formUpload, path: "/v1/topology", topo: t,
			key: fmt.Sprintf("upload/%d", t), body: p.topos[t]}}
	}
	out := g.run(plan, nil)
	for _, s := range out {
		if s.failed {
			return out, fmt.Errorf("warm-up upload of topology %d failed (status %d)", s.topo, s.status)
		}
	}
	return out, nil
}
