package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"rayfade/internal/netio"
	"rayfade/internal/network"
)

// httpError carries the status code a request-shaped failure should map to,
// so the generic handler pipeline needs no per-endpoint error tables.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func unprocessable(format string, args ...any) error {
	return &httpError{status: http.StatusUnprocessableEntity, msg: fmt.Sprintf(format, args...)}
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// decodeJSON reads and decodes the request body into dst, rejecting unknown
// fields (the same typo protection netio applies to topology files) and
// trailing garbage. Oversized bodies surface as 413 via MaxBytesReader.
func decodeJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, dst any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &httpError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
		}
		return badRequest("decode request: %v", err)
	}
	if dec.More() {
		return badRequest("trailing data after JSON document")
	}
	return nil
}

// parseTopology decodes a netio-format topology embedded in a request and
// returns the validated network plus its canonical serialization (netio.Save
// output), which is what cache keys hash: two topologies that differ only in
// whitespace or field order key identically.
func parseTopology(raw json.RawMessage, maxLinks int) (*network.Network, []byte, error) {
	if len(raw) == 0 {
		return nil, nil, badRequest("missing \"network\" field (netio topology document)")
	}
	net, err := netio.Load(bytes.NewReader(raw))
	if err != nil {
		return nil, nil, badRequest("topology: %v", err)
	}
	if maxLinks > 0 && net.N() > maxLinks {
		return nil, nil, &httpError{status: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("topology has %d links, limit is %d", net.N(), maxLinks)}
	}
	var canon bytes.Buffer
	if err := netio.Save(&canon, net); err != nil {
		return nil, nil, badRequest("topology: %v", err)
	}
	return net, canon.Bytes(), nil
}

// resolveTopology produces the parsed network and canonical bytes for one
// compute request, from either an inline netio document or a session ref
// registered via POST /v1/topology. The canonical bytes are identical in
// both cases (the session store keeps netio.Save output), so cache keys —
// and therefore response bytes — do not depend on which form the client
// chose.
func (s *Server) resolveTopology(raw json.RawMessage, ref string) (*network.Network, []byte, error) {
	if ref == "" {
		return parseTopology(raw, s.cfg.MaxLinks)
	}
	if len(raw) != 0 {
		return nil, nil, badRequest("provide either \"network\" or \"topology_ref\", not both")
	}
	net, canon, ok := s.sessions.Get(ref)
	if !ok {
		return nil, nil, &httpError{status: http.StatusNotFound,
			msg: fmt.Sprintf("unknown topology_ref %q (never uploaded, or evicted from the session store — POST /v1/topology to (re)register)", ref)}
	}
	return net, canon, nil
}

// requestKey builds the cache key for one request: a hash over the endpoint
// name, the defaults-applied parameter struct (marshaled, so field order is
// fixed), and the canonical topology bytes. Per-request operational knobs
// that do not affect the computed result (the deadline) must not appear in
// params.
func requestKey(endpoint string, params any, topology []byte) string {
	pb, err := json.Marshal(params)
	if err != nil {
		// Params are plain structs of scalars; this cannot fail at runtime.
		panic(fmt.Sprintf("server: marshal cache-key params: %v", err))
	}
	h := sha256.New()
	io.WriteString(h, endpoint)
	h.Write([]byte{0})
	h.Write(pb)
	h.Write([]byte{0})
	h.Write(topology)
	return hex.EncodeToString(h.Sum(nil))
}

// ---- request / response schemas -----------------------------------------

// scheduleParams are the defaults-applied knobs of /v1/schedule (also the
// cache-key payload).
type scheduleParams struct {
	Algorithm string  `json:"algorithm"`
	Beta      float64 `json:"beta"`
}

type scheduleRequest struct {
	Network     json.RawMessage `json:"network,omitempty"`
	TopologyRef string          `json:"topology_ref,omitempty"`
	Algorithm   string          `json:"algorithm,omitempty"`
	Beta        float64         `json:"beta,omitempty"`
	TimeoutMS   int64           `json:"timeout_ms,omitempty"`
}

// scheduleResponse reports a single-slot capacity solution and its fading
// transfer guarantees (Lemma 2 / Theorem 1).
type scheduleResponse struct {
	Algorithm string  `json:"algorithm"`
	Links     int     `json:"links"`
	Beta      float64 `json:"beta"`
	Set       []int   `json:"set"`
	Size      int     `json:"size"`
	// Value is the non-fading value of the set: its size for unweighted
	// algorithms, the selected weight sum for "weighted".
	Value float64 `json:"value"`
	// Powers certify power-control feasibility (aligned with Set); only
	// set by algorithm "powercontrol".
	Powers []float64 `json:"powers,omitempty"`
	// Lemma2Floor is Value/e, the transfer guarantee.
	Lemma2Floor float64 `json:"lemma2_floor"`
	// ExpectedRayleigh is the exact Theorem-1 expectation when exactly Set
	// transmits under Rayleigh fading.
	ExpectedRayleigh float64 `json:"expected_rayleigh_successes"`
}

type latencyParams struct {
	Scheduler string  `json:"scheduler"`
	Model     string  `json:"model"`
	Beta      float64 `json:"beta"`
	Prob      float64 `json:"prob"`
	MaxSlots  int     `json:"max_slots"`
	Seed      uint64  `json:"seed"`
}

type latencyRequest struct {
	Network     json.RawMessage `json:"network,omitempty"`
	TopologyRef string          `json:"topology_ref,omitempty"`
	Scheduler   string          `json:"scheduler,omitempty"`
	Model       string          `json:"model,omitempty"`
	Beta        float64         `json:"beta,omitempty"`
	Prob        float64         `json:"prob,omitempty"`
	MaxSlots    int             `json:"max_slots,omitempty"`
	Seed        uint64          `json:"seed,omitempty"`
	TimeoutMS   int64           `json:"timeout_ms,omitempty"`
}

// latencyResponse reports a full-coverage schedule (every link served).
type latencyResponse struct {
	Scheduler string  `json:"scheduler"`
	Model     string  `json:"model"`
	Links     int     `json:"links"`
	Beta      float64 `json:"beta"`
	Seed      uint64  `json:"seed"`
	// Slots is the number of time slots consumed until every link
	// succeeded (for model "rayleigh", counting the 4x repetition).
	Slots int  `json:"slots"`
	Done  bool `json:"done"`
	// Schedule is the non-fading repeated-capacity schedule (scheduler
	// "repeated" only): one feasible link set per base slot.
	Schedule [][]int `json:"schedule,omitempty"`
	// Repeats is the per-slot repetition factor applied under Rayleigh
	// fading (the Section-4 transformation), 1 otherwise.
	Repeats int `json:"repeats"`
}

type reduceParams struct {
	Beta    float64 `json:"beta"`
	Prob    float64 `json:"prob"`
	Samples int     `json:"samples"`
	Seed    uint64  `json:"seed"`
}

type reduceRequest struct {
	Network     json.RawMessage `json:"network,omitempty"`
	TopologyRef string          `json:"topology_ref,omitempty"`
	Beta        float64         `json:"beta,omitempty"`
	Prob        float64         `json:"prob,omitempty"`
	Samples     int             `json:"samples,omitempty"`
	Seed        uint64          `json:"seed,omitempty"`
	TimeoutMS   int64           `json:"timeout_ms,omitempty"`
}

// reduceStep is one level of the Algorithm-1 simulation with its estimated
// single-slot non-fading value.
type reduceStep struct {
	Level       int     `json:"level"`
	B           float64 `json:"b"`
	Repeats     int     `json:"repeats"`
	ValueMean   float64 `json:"value_mean"`
	ValueStderr float64 `json:"value_stderr"`
}

// reduceResponse reports the non-fading→Rayleigh reduction (Algorithm 1 /
// Theorem 2) applied to a uniform probability assignment.
type reduceResponse struct {
	Links   int     `json:"links"`
	Beta    float64 `json:"beta"`
	Prob    float64 `json:"prob"`
	Seed    uint64  `json:"seed"`
	Levels  int     `json:"levels"`
	LogStar int     `json:"logstar"`
	// TotalSlots is the Θ(log* n) slot count of the full simulation.
	TotalSlots int          `json:"total_slots"`
	Steps      []reduceStep `json:"steps"`
	BestLevel  int          `json:"best_level"`
	BestValue  float64      `json:"best_value"`
	// RayleighExact is E[successes] under Rayleigh fading at the requested
	// probability (Theorem 1, closed form).
	RayleighExact float64 `json:"rayleigh_exact"`
	// Ratio is RayleighExact / BestValue, the empirical Theorem-2 factor
	// (0 when the best step value is 0).
	Ratio float64 `json:"ratio"`
}

type estimateParams struct {
	Beta    float64 `json:"beta"`
	Prob    float64 `json:"prob"`
	Samples int     `json:"samples"`
	Seed    uint64  `json:"seed"`
}

type estimateRequest struct {
	Network     json.RawMessage `json:"network,omitempty"`
	TopologyRef string          `json:"topology_ref,omitempty"`
	Beta        float64         `json:"beta,omitempty"`
	Prob        float64         `json:"prob,omitempty"`
	Samples     int             `json:"samples,omitempty"`
	Seed        uint64          `json:"seed,omitempty"`
	TimeoutMS   int64           `json:"timeout_ms,omitempty"`
}

// estimateResponse reports a Monte-Carlo estimate of the expected Rayleigh
// success count next to the Theorem-1 closed form it converges to.
type estimateResponse struct {
	Links   int     `json:"links"`
	Beta    float64 `json:"beta"`
	Prob    float64 `json:"prob"`
	Seed    uint64  `json:"seed"`
	Samples int     `json:"samples"`
	// Mean and Stderr are the Monte-Carlo estimate of E[successes].
	Mean   float64 `json:"mean"`
	Stderr float64 `json:"stderr"`
	// Exact is Σ_i Q_i(q,β), the closed-form expectation.
	Exact float64 `json:"exact"`
}

// topologyResponse is the POST /v1/topology body: the content-derived
// session handle compute requests pass as topology_ref.
type topologyResponse struct {
	TopologyRef string `json:"topology_ref"`
	Links       int    `json:"links"`
	// Created is false when the topology was already registered (the upload
	// only refreshed its LRU recency).
	Created bool `json:"created"`
}

// Health is the GET /healthz body: liveness plus the worker identity a
// cluster coordinator needs — which process it is talking to, how wide it is,
// and how much shard work it is carrying — and the daemon's RED summary
// (per-endpoint requests, errors, latency quantiles) and reuse tallies. It is
// built in process from the same counters /metrics renders, so the two pages
// never disagree; `raysched cluster -status` decodes it directly.
type Health struct {
	// Status is "ok" or "draining".
	Status          string `json:"status"`
	Version         string `json:"version"`
	Instance        string `json:"instance"`
	GoMaxProcs      int    `json:"gomaxprocs"`
	ShardsInflight  int64  `json:"shards_inflight"`
	ShardsCompleted int64  `json:"shards_completed"`

	// Endpoints, sorted by name.
	Endpoints []EndpointSummary `json:"endpoints"`

	CacheHits          uint64 `json:"cache_hits"`
	CacheMisses        uint64 `json:"cache_misses"`
	SingleflightShared uint64 `json:"singleflight_shared"`
	SessionHits        uint64 `json:"session_hits"`
	SessionMisses      uint64 `json:"session_misses"`
	BatchLines         uint64 `json:"batch_lines"`
	TracesRetained     uint64 `json:"traces_retained"`
}
