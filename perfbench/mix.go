package main

import (
	"fmt"
	"time"

	"rayfade/internal/rng"
	"rayfade/internal/server"
)

// The serve-mix traffic. Request forms share the daemon's response cache in
// different ways: an inline estimate pays the topology parse before its
// cache lookup, a topology_ref estimate skips it, a fresh seed always
// misses, an upload touches only the session store, and a schedule runs the
// capacity kernel on a larger topology.
const (
	mixTopologies = 64  // 40-link topologies, all uploaded: under the 128-session cap
	mixHotKeys    = 512 // repeated estimate keys: twice the 256-entry response cache
	mixSchedTopos = 32  // 100-link topologies for /v1/schedule
	mixLinks      = 40
	mixSchedLinks = 100
	mixSamples    = 100
)

// Request forms, as the generator classifies responses.
const (
	formInline   = "inline"
	formRef      = "ref"
	formUpload   = "upload"
	formSchedule = "schedule"
)

// mixShares is the cumulative request mix: hot inline estimates, hot ref
// estimates, fresh-seed inline and ref estimates, uploads, schedules.
var mixShares = []struct {
	form  string
	fresh bool
	share float64
}{
	{formInline, false, 0.35},
	{formRef, false, 0.35},
	{formInline, true, 0.075},
	{formRef, true, 0.075},
	{formUpload, false, 0.10},
	{formSchedule, false, 0.05},
}

// request is one planned request: where it goes, its body, and the logical
// key under which every 200 body must be identical across the run (the
// inline and ref forms of one estimate share a key).
type request struct {
	form string
	path string
	key  string
	body []byte
	topo int // index into population.topos (population.scheds for a schedule)
	seed uint64
}

// population is the deterministic input set of one serve-mix run.
type population struct {
	topos  [][]byte // canonical 40-link topologies
	refs   []string // their topology_ref handles
	scheds [][]byte // canonical 100-link topologies

	bodies map[string][]byte // memoised request bodies by form+key
	fresh  uint64            // next fresh estimate seed
}

// newPopulation builds the topologies for a workload seed. Distinct seeds
// give distinct topologies.
func newPopulation(seed uint64) (*population, error) {
	p := &population{bodies: map[string][]byte{}, fresh: 1 << 20}
	for t := 0; t < mixTopologies; t++ {
		b, err := server.BenchTopology(mixLinks, seed*10_000+uint64(t)+1)
		if err != nil {
			return nil, err
		}
		p.topos = append(p.topos, b)
		p.refs = append(p.refs, server.TopologyRef(b))
	}
	for t := 0; t < mixSchedTopos; t++ {
		b, err := server.BenchTopology(mixSchedLinks, seed*10_000+5_000+uint64(t)+1)
		if err != nil {
			return nil, err
		}
		p.scheds = append(p.scheds, b)
	}
	return p, nil
}

// hotKey draws a hot estimate key, uniformly over the mixHotKeys
// (topology, estimate seed) pairs.
func hotKey(src *rng.Source) (topo int, seed uint64) {
	k := src.Intn(mixHotKeys)
	return k % mixTopologies, uint64(k/mixTopologies) + 1
}

// estimate builds (or reuses) the body of an estimate request.
func (p *population) estimate(form string, topo int, seed uint64) (request, error) {
	r := request{form: form, path: "/v1/estimate", topo: topo, seed: seed,
		key: fmt.Sprintf("estimate/%d/%d", topo, seed)}
	mk := form + "/" + r.key
	if b, ok := p.bodies[mk]; ok {
		r.body = b
		return r, nil
	}
	var err error
	if form == formInline {
		r.body, err = server.BenchEstimateRequest(p.topos[topo], mixSamples, seed)
	} else {
		r.body, err = server.BenchEstimateRefRequest(p.refs[topo], mixSamples, seed)
	}
	if err != nil {
		return r, err
	}
	p.bodies[mk] = r.body
	return r, nil
}

// next draws the next request of the mix from src.
func (p *population) next(src *rng.Source) (request, error) {
	u := src.Float64()
	m := mixShares[len(mixShares)-1]
	acc := 0.0
	for _, s := range mixShares {
		acc += s.share
		if u < acc {
			m = s
			break
		}
	}
	switch m.form {
	case formUpload:
		t := src.Intn(mixTopologies)
		return request{form: formUpload, path: "/v1/topology", topo: t,
			key: fmt.Sprintf("upload/%d", t), body: p.topos[t]}, nil
	case formSchedule:
		t := src.Intn(mixSchedTopos)
		key := fmt.Sprintf("schedule/%d", t)
		b, ok := p.bodies[key]
		if !ok {
			var err error
			if b, err = server.BenchScheduleRequest(p.scheds[t], "greedy"); err != nil {
				return request{}, err
			}
			p.bodies[key] = b
		}
		return request{form: formSchedule, path: "/v1/schedule", topo: t, key: key, body: b}, nil
	}
	if m.fresh {
		seed := p.fresh
		p.fresh++
		r, err := p.estimate(m.form, src.Intn(mixTopologies), seed)
		delete(p.bodies, m.form+"/"+r.key) // never reused
		return r, err
	}
	t, seed := hotKey(src)
	return p.estimate(m.form, t, seed)
}

// planned is a request with its scheduled send time, as an offset from the
// start of its step.
type planned struct {
	at time.Duration
	request
}

// poissonSchedule plans an open-loop step: Poisson arrivals at rate per
// second for the given duration, drawing request content from the mix.
// Arrival gaps and content come from separate streams of src, so the
// requests of a seed are the same whatever the rate.
func poissonSchedule(p *population, gaps, content *rng.Source, rate float64, d time.Duration) ([]planned, error) {
	var out []planned
	t := 0.0
	for {
		t += gaps.ExpRate(rate)
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out, nil
		}
		r, err := p.next(content)
		if err != nil {
			return nil, err
		}
		out = append(out, planned{at: at, request: r})
	}
}
