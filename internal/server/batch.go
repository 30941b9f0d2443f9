package server

// Batched multi-key coordination. A batch decomposes into the same per-key
// quorum operations the paper analyzes — each key keeps its own preference
// list, quorum accounting, and typed verdict — but the fan-out is amortized:
// the coordinator groups every key's legs by destination peer and sends ONE
// multi-key RPC per peer per batch (ApplyBatch / GetVersionBatch), so a
// 64-key batch on a 3-replica cluster costs 3 frames instead of 192. A
// batch leg is one frame, so under an injected WARS model it takes one
// delay draw per peer per batch, as a network delays one message; each
// key's marginal latency and visibility are still the WARS order
// statistics. In sloppy mode a batch leg carries each key's spare picker,
// and a key whose replica is down or whose frame failed walks its spares
// exactly like a single-key leg.

import (
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pbs/internal/kvstore"
	"pbs/internal/vclock"
)

// maxBatchOps bounds one client batch (both frames and the HTTP shim).
const maxBatchOps = 4096

// batchFallbackConcurrency bounds the concurrent single-key routings of
// an MPut's mis-grouped keys — keys another node coordinates (the client
// raced a ring change), which take the forwarding path one by one.
const batchFallbackConcurrency = 32

// BatchPutOp is one write inside a batched client operation.
type BatchPutOp struct {
	Key       string
	Value     string
	Tombstone bool
}

// batchPutOut / batchGetOut carry one key's outcome in front-end-neutral
// form (same split as the single-key entry points): exactly one of the
// response and the typed error is set.
type batchPutOut struct {
	pr PutResponse
	oe *opError
}

type batchGetOut struct {
	gr GetResponse
	oe *opError
}

// forEachIndex runs fn(i) for every index in idxs on a bounded worker
// group and waits for all of them.
func forEachIndex(idxs []int, fn func(i int)) {
	if len(idxs) == 0 {
		return
	}
	if len(idxs) == 1 {
		fn(idxs[0])
		return
	}
	workers := min(batchFallbackConcurrency, len(idxs))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(idxs) {
					return
				}
				fn(idxs[j])
			}
		}()
	}
	wg.Wait()
}

// batchLegFor finds (or starts) the batch leg targeting peer id. The scan
// is linear: a batch touches at most the cluster's member count of
// distinct peers, which is small.
func batchLegFor(legs *[]*legTask, n *Node, v *memView, id int, read bool) *legTask {
	for _, t := range *legs {
		if t.target == id {
			return t
		}
	}
	t := newLegTask()
	t.n, t.view, t.target, t.read, t.batch = n, v, id, read, true
	*legs = append(*legs, t)
	return t
}

// coordinateMGet answers a batched read: one entry per key, in input
// order, each carrying either a GetResponse or its own typed failure (one
// key's quorum failure does not fail the batch).
func (n *Node) coordinateMGet(keys []string) []batchGetOut {
	outs := make([]batchGetOut, len(keys))
	todo := make([]int, 0, len(keys))
	for i, key := range keys {
		if key == "" {
			outs[i].oe = errBadRequest("server: empty key")
			continue
		}
		todo = append(todo, i)
	}
	v := n.view()
	if v == nil {
		oe := errUnavailable("server: node has no membership yet")
		for _, i := range todo {
			outs[i].oe = oe
		}
		return outs
	}
	n.coordReads.Add(int64(len(todo)))
	quorumR := int(n.rq.Load())
	start := time.Now()
	rss := make([]*readState, len(keys))
	var legs []*legTask
	for _, i := range todo {
		prefs := n.prefs(v, keys[i])
		rs := n.newReadState(v, min(quorumR, len(prefs)), len(prefs))
		rss[i] = rs
		spares := n.sparePicker(v, keys[i])
		for _, id := range prefs {
			t := batchLegFor(&legs, n, v, id, true)
			t.bkeys = append(t.bkeys, keys[i])
			t.brs = append(t.brs, rs)
			if spares != nil {
				t.bspares = append(t.bspares, spares)
			}
		}
	}
	for _, t := range legs {
		n.submitLeg(t)
	}
	// Harvest verdicts in input order. The waits overlap (every leg is
	// already in flight), so the walk costs the slowest key, not the sum,
	// and each key's CoordMs is its own quorum time.
	for _, i := range todo {
		outs[i].gr, outs[i].oe = n.awaitRead(rss[i], start)
	}
	return outs
}

// coordinateMPut answers a batched write: one entry per op, in input
// order, each with its own verdict. Keys this node coordinates fan out as
// grouped multi-key legs; keys owned elsewhere (a client raced a ring
// change) take the single-key routing path — including the proxy hop — so
// correctness never depends on the client's grouping being current.
func (n *Node) coordinateMPut(ops []BatchPutOp) []batchPutOut {
	outs := make([]batchPutOut, len(ops))
	todo := make([]int, 0, len(ops))
	for i, op := range ops {
		if op.Key == "" {
			outs[i].oe = errBadRequest("server: empty key")
			continue
		}
		if len(op.Value) > maxValueBytes {
			outs[i].oe = &opError{
				status: http.StatusRequestEntityTooLarge,
				code:   CodeBadRequest,
				msg:    "server: value exceeds 1 MiB",
			}
			continue
		}
		todo = append(todo, i)
	}
	v := n.view()
	if v == nil {
		oe := errUnavailable("server: node has no membership yet")
		for _, i := range todo {
			outs[i].oe = oe
		}
		return outs
	}
	local := make([]int, 0, len(todo))
	var remote []int
	for _, i := range todo {
		if v.m.Coordinator(ops[i].Key) == n.id {
			local = append(local, i)
		} else {
			remote = append(remote, i)
		}
	}
	// Mis-grouped keys route (and forward) concurrently with the local
	// batch's quorum waits.
	var remoteWG sync.WaitGroup
	if len(remote) > 0 {
		remoteWG.Add(1)
		go func() {
			defer remoteWG.Done()
			forEachIndex(remote, func(i int) {
				outs[i].pr, outs[i].oe = n.routeWriteOp(ops[i].Key, ops[i].Value, ops[i].Tombstone, 0)
			})
		}()
	}
	n.coordWrites.Add(int64(len(local)))
	quorumW := int(n.wq.Load())
	start := time.Now()
	wss := make([]*writeState, len(ops))
	var legs []*legTask
	for _, i := range local {
		seq := n.nextSeq(ops[i].Key, false)
		ver := kvstore.Version{
			Key:       ops[i].Key,
			Seq:       seq,
			Value:     ops[i].Value,
			Tombstone: ops[i].Tombstone,
			Clock:     vclock.VC{n.id: n.clockTicks.Add(1)},
		}
		prefs := n.prefs(v, ops[i].Key)
		ws := newWriteState(min(quorumW, len(prefs)), len(prefs))
		wss[i] = ws
		outs[i].pr.Seq = seq
		spares := n.sparePicker(v, ops[i].Key)
		for _, id := range prefs {
			t := batchLegFor(&legs, n, v, id, false)
			t.bvers = append(t.bvers, ver)
			t.bws = append(t.bws, ws)
			if spares != nil {
				t.bspares = append(t.bspares, spares)
			}
		}
	}
	for _, t := range legs {
		n.submitLeg(t)
	}
	for _, i := range local {
		outs[i].pr, outs[i].oe = n.awaitWrite(wss[i], outs[i].pr.Seq, start, nil)
	}
	remoteWG.Wait()
	return outs
}

// --- HTTP compatibility shim --------------------------------------------

// BatchGetHTTPResult is one key's entry in the GET /kv?keys=... response:
// the GetResponse on success, or the same typed verdict the binary
// protocol carries (Code per clientproto.go, retryability included).
type BatchGetHTTPResult struct {
	GetResponse
	Error string `json:"error,omitempty"`
	Code  byte   `json:"code,omitempty"`
}

// handleMGet is the HTTP front end of coordinateMGet: GET /kv?keys=a,b,c
// answers a JSON array with one entry per requested key, in request
// order. Keys containing commas cannot ride this shim (the client library
// falls back to single-key GETs for those); the binary frames have no
// such restriction.
func (n *Node) handleMGet(w http.ResponseWriter, req *http.Request) {
	raw := req.URL.Query().Get("keys")
	if raw == "" {
		http.Error(w, "server: missing keys parameter", http.StatusBadRequest)
		return
	}
	keys := strings.Split(raw, ",")
	if len(keys) > maxBatchOps {
		http.Error(w, "server: batch too large", http.StatusBadRequest)
		return
	}
	outs := n.coordinateMGet(keys)
	items := make([]BatchGetHTTPResult, len(outs))
	for i, out := range outs {
		if out.oe != nil {
			items[i] = BatchGetHTTPResult{Error: out.oe.msg, Code: out.oe.code}
		} else {
			items[i] = BatchGetHTTPResult{GetResponse: out.gr}
		}
	}
	writeJSON(w, items)
}
