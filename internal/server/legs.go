package server

// Per-leg WARS latency sampling — the measurement side of Section 6's
// dynamic configuration. The coordinator observes each replica's
// individual fan-out legs directly: for writes, the dissemination leg (W)
// from fan-out start to the apply acknowledgment and the ack leg (A)
// until the response is accounted; for reads, the request leg (R) and the
// response leg (S) likewise. Every fan-out leg (fanout.go) records one
// pair: the injected request delay plus the real RPC round trip as W or R,
// and the injected response delay as A or S — so without a model the
// round trip is W or R and A and S are zero, and a batch leg records one
// pair for all of its keys. Attributing the round trip to the request leg
// is the convention the conformance suite uses when composing predictions
// with measured harness overhead. Each node keeps a bounded uniform reservoir
// per leg and serves the pooled samples at GET /wars, which the tuner fits
// online. Sampling is enabled by Params.WARSSampling (off by default: it
// costs two clock reads and one mutex acquisition per fan-out leg); with
// it off, /wars serves empty reservoirs.

import (
	"sync"

	"pbs/internal/rng"
)

// legSampleCap bounds each leg's reservoir. 8192 doubles comfortably cover
// the quantiles the fitting path consumes (up to p99.9).
const legSampleCap = 8192

const (
	legW = iota
	legA
	legR
	legS
	legCount
)

// legSampler holds one node's per-leg latency reservoirs. Safe for
// concurrent use.
type legSampler struct {
	mu   sync.Mutex
	r    *rng.RNG
	seen [legCount]int64
	res  [legCount][]float64
}

func newLegSampler(seed uint64) *legSampler {
	return &legSampler{r: rng.New(seed)}
}

// observe records one leg sample with uniform reservoir sampling, so the
// kept set stays an unbiased sample of the node's lifetime distribution.
// Callers hold ls.mu.
func (ls *legSampler) observe(leg int, ms float64) {
	ls.seen[leg]++
	if len(ls.res[leg]) < legSampleCap {
		ls.res[leg] = append(ls.res[leg], ms)
		return
	}
	if j := ls.r.Intn(int(ls.seen[leg])); j < legSampleCap {
		ls.res[leg][j] = ms
	}
}

// observeWrite records one replica's write legs (one lock for the pair —
// this runs on every fan-out leg of the hot path).
func (ls *legSampler) observeWrite(wMs, aMs float64) {
	ls.mu.Lock()
	ls.observe(legW, wMs)
	ls.observe(legA, aMs)
	ls.mu.Unlock()
}

// observeRead records one replica's read legs.
func (ls *legSampler) observeRead(rMs, sMs float64) {
	ls.mu.Lock()
	ls.observe(legR, rMs)
	ls.observe(legS, sMs)
	ls.mu.Unlock()
}

// WARSResponse is the payload of GET /wars: the node's reservoir of
// per-replica WARS leg samples (milliseconds) plus lifetime observation
// counts.
type WARSResponse struct {
	Node int       `json:"node"`
	W    []float64 `json:"w"`
	A    []float64 `json:"a"`
	R    []float64 `json:"r"`
	S    []float64 `json:"s"`
	Seen [4]int64  `json:"seen"`
}

// snapshot copies the reservoirs; a nil sampler (Params.WARSSampling off)
// reports empty.
func (ls *legSampler) snapshot(node int) WARSResponse {
	if ls == nil {
		return WARSResponse{Node: node}
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	out := WARSResponse{Node: node}
	cp := func(xs []float64) []float64 { return append([]float64(nil), xs...) }
	out.W, out.A, out.R, out.S = cp(ls.res[legW]), cp(ls.res[legA]), cp(ls.res[legR]), cp(ls.res[legS])
	out.Seen = [4]int64{ls.seen[legW], ls.seen[legA], ls.seen[legR], ls.seen[legS]}
	return out
}
