package server

// WARS latency injection. The conformance story of this package is that a
// loopback cluster must reproduce the paper's production conditions: every
// coordinator fan-out leg draws its one-way delays from a
// dist.LatencyModel — W (write dissemination) and A (write ack) for a
// write leg, R (read request) and S (read response) for a read leg — and
// realizes them as timers on the coordinator (fanout.go): the request
// delay elapses before the leg enters its peer's worker queue, the
// response delay after the RPC returns and before the leg's ack reaches
// the quorum state. That reproduces the WARS arrival times at both ends
// while keeping replicas, the transport and the worker pool
// latency-agnostic: no worker ever parks on an injected delay, and
// read-repair, handoff, anti-entropy and drain RPCs are never delayed.

import (
	"sync"
	"time"

	"pbs/internal/dist"
	"pbs/internal/rng"
)

// injector samples WARS delays for coordinator fan-out legs. It is safe
// for concurrent use.
type injector struct {
	model dist.LatencyModel

	mu sync.Mutex
	r  *rng.RNG
}

// newInjector builds an injector for the scaled model. Returns nil when
// model is nil (no injected latency — the configuration used for raw
// throughput benchmarks).
func newInjector(model *dist.LatencyModel, scale float64, seed uint64) *injector {
	if model == nil {
		return nil
	}
	m := dist.ScaleModel(*model, scale)
	return &injector{model: m, r: rng.New(seed)}
}

// legDelays draws one leg's (request, response) delay pair in
// milliseconds: (W, A) for a write leg, (R, S) for a read leg. A batch
// leg is one frame and takes one draw for all of its keys.
func (in *injector) legDelays(read bool) (req, resp float64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if read {
		return in.model.R.Sample(in.r), in.model.S.Sample(in.r)
	}
	return in.model.W.Sample(in.r), in.model.A.Sample(in.r)
}

// msDuration converts milliseconds to a time.Duration.
func msDuration(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}

// sleepMs blocks for ms milliseconds (no-op for ms <= 0).
func sleepMs(ms float64) {
	if ms > 0 {
		time.Sleep(msDuration(ms))
	}
}
