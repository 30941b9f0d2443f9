package server

// Persistent per-peer fan-out workers: the coordinator's one fan-out path.
// The v1 coordinator spawned one goroutine per quorum leg per operation;
// at tens of thousands of ops/s on a 3-replica cluster that is >100k
// goroutine creations per second of pure churn. Here each destination
// member gets a small persistent worker pool draining a submission queue,
// so a quorum write touches N queues instead of spawning N goroutines, and
// the leg task itself is pooled. A single-key operation submits one leg per
// preference replica; a batched operation (batch.go) submits one
// multi-key leg per destination peer.
//
// Injected WARS delays (latency.go) ride the same legs: submitLeg draws the
// leg's (request, response) delay pair, a timer holds the leg before its
// queue for the request delay, and a second timer holds the leg's acks for
// the response delay once the RPC returns. Workers only ever run RPCs, so
// an injected delay never queues later legs behind it, and the conformance
// suite validates the path that serves traffic. Fault injection
// (delay/pause) can still make an RPC dwell: a full queue spills the task
// onto a fresh goroutine rather than queueing behind a stalled worker, so
// cross-peer legs never serialize behind one slow destination.
//
// Queues are keyed by member ID, which the membership layer never reuses,
// and live until the node closes: a departed member's drained queue idles
// at a few parked goroutines, which is cheaper than solving the
// enqueue-vs-shutdown race a per-membership lifecycle would create.

import (
	"runtime"
	"sync"
	"time"

	"pbs/internal/kvstore"
)

// legWorkersPerPeer bounds concurrent legs per destination. Sized to keep a
// loopback peer's pipe full at high op concurrency without re-creating
// per-op goroutine churn.
var legWorkersPerPeer = max(8, min(32, 4*runtime.GOMAXPROCS(0)))

// legQueueCap bounds a peer queue; submissions beyond it spill onto fresh
// goroutines (never block — a stalled peer must not gate other ops, and a
// leg RPC is a blocking round trip, so a backlog deeper than the worker
// pool would just sit in queue adding latency: the cap keeps queue dwell
// to about one extra round trip, and overload degrades to the pre-mux
// goroutine-per-leg shape instead of a convoy).
var legQueueCap = legWorkersPerPeer

type peerQueue struct {
	mu     sync.Mutex
	closed bool
	ch     chan *legTask
}

// submit enqueues t, reporting false when the queue is closed or full (the
// caller runs t on a fresh goroutine instead). The mutex orders submits
// against close: once drainAndClose sets closed, no task can enter ch, so
// the final drain leaves nothing stranded.
func (q *peerQueue) submit(t *legTask) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	select {
	case q.ch <- t:
		return true
	default:
		return false
	}
}

func (q *peerQueue) drainAndClose() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	for {
		select {
		case t := <-q.ch:
			t.run()
		default:
			return
		}
	}
}

// legQueue returns (creating on first use) the submission queue for member
// id, starting its workers.
func (n *Node) legQueue(id int) *peerQueue {
	if q, ok := n.legQueues.Load(id); ok {
		return q.(*peerQueue)
	}
	q := &peerQueue{ch: make(chan *legTask, legQueueCap)}
	if actual, loaded := n.legQueues.LoadOrStore(id, q); loaded {
		return actual.(*peerQueue)
	}
	for i := 0; i < legWorkersPerPeer; i++ {
		first := i == 0
		go func() {
			for {
				select {
				case t := <-q.ch:
					t.run()
				case <-n.stop:
					if first {
						q.drainAndClose()
					}
					return
				}
			}
		}()
	}
	return q
}

// submitLeg starts one fan-out leg. With a WARS model injected it draws the
// leg's delay pair and holds the leg on a timer for the request delay
// before it enters the destination's queue.
func (n *Node) submitLeg(t *legTask) {
	if n.inj != nil {
		t.reqMs, t.respMs = n.inj.legDelays(t.read)
		if t.reqMs > 0 {
			time.AfterFunc(msDuration(t.reqMs), t.enqueue)
			return
		}
	}
	t.enqueue()
}

// enqueue hands t to its destination's workers, spilling onto a fresh
// goroutine when the queue is saturated or closing.
func (t *legTask) enqueue() {
	if !t.n.legQueue(t.target).submit(t) {
		go t.run()
	}
}

// legTask is one fan-out leg. Pooled: respond releases it, so the
// steady-state hot path allocates no task objects. A batch leg carries one
// peer's whole share of a multi-key client batch (parallel per-key slices)
// and costs one RPC frame — and one injected delay draw — for all of them.
type legTask struct {
	n      *Node
	view   *memView
	target int
	read   bool
	batch  bool
	// Injected request and response delays (ms); zero without a model.
	reqMs, respMs float64

	// Single-key legs: the write or read, its quorum state, its spare
	// picker (sloppy mode), and the outcome run hands to respond.
	ver    kvstore.Version
	ws     *writeState
	ok     bool
	key    string
	rs     *readState
	rr     readResp
	spares *sparePicker

	// Batched legs (coordinateMGet/coordinateMPut): index-aligned per-key
	// slices, capacity preserved across pool cycles. bspares is empty in
	// strict mode.
	bvers   []kvstore.Version
	bws     []*writeState
	boks    []bool
	bkeys   []string
	brs     []*readState
	brr     []readResp
	bspares []*sparePicker
}

var legTaskPool = sync.Pool{New: func() any { return new(legTask) }}

func newLegTask() *legTask { return legTaskPool.Get().(*legTask) }

// run delivers the leg, records its WARS sample — (request delay + RPC
// time, response delay), which without a model is the RPC round trip as W
// or R and zero as A or S — and answers its quorum states, after the
// response delay when one is injected.
func (t *legTask) run() {
	var sent time.Time
	if t.n.legs != nil {
		sent = time.Now()
	}
	if t.deliver() && t.n.legs != nil {
		// A batch leg is one observation: its keys shared one round trip.
		ms := t.reqMs + float64(time.Since(sent))/float64(time.Millisecond)
		if t.read {
			t.n.legs.observeRead(ms, t.respMs)
		} else {
			t.n.legs.observeWrite(ms, t.respMs)
		}
	}
	if t.respMs > 0 {
		time.AfterFunc(msDuration(t.respMs), t.respond)
		return
	}
	t.respond()
}

// deliver performs the leg's RPC and stores each key's outcome for
// respond, reporting whether the leg was answered.
func (t *legTask) deliver() bool {
	switch {
	case t.batch && t.read:
		return t.deliverReadBatch()
	case t.batch:
		return t.deliverWriteBatch()
	case t.read:
		t.rr = t.n.readReplica(t.view, t.target, t.key, t.spares)
		return t.rr.err == nil
	default:
		t.ok = t.n.deliverWrite(t.view, t.target, t.ver, t.spares)
		return t.ok
	}
}

// respond hands each key's outcome to its quorum state and recycles the
// task.
func (t *legTask) respond() {
	switch {
	case t.batch && t.read:
		for i, rs := range t.brs {
			rs.complete(t.brr[i])
		}
	case t.batch:
		for i, ws := range t.bws {
			ws.ack(t.boks[i])
		}
	case t.read:
		t.rs.complete(t.rr)
	default:
		t.ws.ack(t.ok)
	}
	t.reset()
	legTaskPool.Put(t)
}

// reset clears the task for pooling, zeroing the batch slices' elements
// (they hold strings and pooled state pointers) while keeping their
// capacity — the per-peer grouping buffers are the batch path's hottest
// allocation.
func (t *legTask) reset() {
	clear(t.bvers)
	clear(t.bws)
	clear(t.bkeys)
	clear(t.brs)
	clear(t.brr)
	clear(t.bspares)
	*t = legTask{
		bvers: t.bvers[:0], bws: t.bws[:0], boks: t.boks[:0],
		bkeys: t.bkeys[:0], brs: t.brs[:0], brr: t.brr[:0], bspares: t.bspares[:0],
	}
}

// spareAt returns key i's spare picker (nil in strict mode).
func (t *legTask) spareAt(i int) *sparePicker {
	if len(t.bspares) == 0 {
		return nil
	}
	return t.bspares[i]
}

// deliverWriteBatch delivers one peer's share of a batched write fan-out as
// a single ApplyBatch round trip and judges each key's ack from the peer's
// per-version answers, so ackable's stale-epoch refusal applies per key
// exactly as on the single-key path. When the frame fails — or, in sloppy
// mode, the target is down — every key takes the single-key leg's
// fallback (writeSpare): its spare walk, or a buffered hint.
func (t *legTask) deliverWriteBatch() bool {
	n, v := t.n, t.view
	sloppy := len(t.bspares) > 0
	if !sloppy || n.alive(v, t.target) {
		acks, err := v.peers[t.target].ApplyBatch(t.bvers)
		if err == nil {
			for i := range t.bvers {
				t.boks = append(t.boks, n.ackable(t.bvers[i], acks[i].Applied, acks[i].Seq))
			}
			return true
		}
		if sloppy && deadError(err) {
			n.live.markDead(t.target)
		}
	}
	for i := range t.bvers {
		t.boks = append(t.boks, n.writeSpare(v, t.target, t.bvers[i], t.spareAt(i)))
	}
	return false
}

// deliverReadBatch performs one peer's share of a batched read fan-out as a
// single GetVersionBatch round trip. When the frame fails — or, in sloppy
// mode, the target is down — every key takes the single-key leg's fallback
// (readSpare), so each key's quorum accounting stays independent.
func (t *legTask) deliverReadBatch() bool {
	n, v := t.n, t.view
	sloppy := len(t.bspares) > 0
	var err error
	if !sloppy || n.alive(v, t.target) {
		var vs []kvstore.Version
		var found []bool
		vs, found, err = v.peers[t.target].GetVersionBatch(t.bkeys)
		if err == nil {
			for i := range t.bkeys {
				t.brr = append(t.brr, readResp{node: t.target, v: vs[i], found: found[i]})
			}
			return true
		}
		if sloppy && deadError(err) {
			n.live.markDead(t.target)
		}
	}
	for i, key := range t.bkeys {
		t.brr = append(t.brr, n.readSpare(v, t.target, key, t.spareAt(i), err))
	}
	return false
}

// --- coordinated-read state ---------------------------------------------

// readState collects one coordinated read's fan-out responses. It replaces
// the v1 response channel + background finishRead goroutine with a single
// mutex-guarded struct shared by the handler and the legs, preserving v1
// semantics exactly: the handler answers with the newest version among the
// first quorum *successful* responses in arrival order, and the staleness
// detector / read-repair pass runs once over all responses after both the
// last leg has landed and the handler has answered — executed by whichever
// of the two gets there last, so no goroutine is spawned on the common
// R < N hot path.
type readState struct {
	n    *Node
	view *memView

	quorum, total int
	waiter        chan struct{}
	// at is the instant the waiter was signaled — the read's quorum time,
	// written by the signaling leg before the send and read by the
	// handler after the receive.
	at time.Time

	mu        sync.Mutex
	resps     []readResp
	succ, don int
	signaled  bool
	answered  bool
	finalized bool
	returned  kvstore.Version
}

// readStatePool recycles read states across coordinated reads. The waiter
// is a capacity-1 channel reused across pool cycles: the signaled flag
// already guarantees exactly one send per read, and the handler performs
// exactly one receive, so the channel is always drained at release time.
var readStatePool = sync.Pool{New: func() any {
	return &readState{waiter: make(chan struct{}, 1)}
}}

func (n *Node) newReadState(v *memView, quorum, total int) *readState {
	rs := readStatePool.Get().(*readState)
	rs.n, rs.view = n, v
	rs.quorum, rs.total = quorum, total
	if cap(rs.resps) < total {
		rs.resps = make([]readResp, 0, total)
	}
	return rs
}

// release returns the state to the pool. Callers must guarantee no leg can
// still touch rs: either every leg has completed (don == total — the
// failed-read and last-leg-finalize paths), or the releasing goroutine is
// the finalizer, which by construction runs after the last leg's critical
// section.
func (rs *readState) release() {
	for i := range rs.resps {
		rs.resps[i] = readResp{}
	}
	rs.resps = rs.resps[:0]
	rs.n, rs.view = nil, nil
	rs.quorum, rs.total, rs.succ, rs.don = 0, 0, 0, 0
	rs.signaled, rs.answered, rs.finalized = false, false, false
	rs.returned = kvstore.Version{}
	rs.at = time.Time{}
	readStatePool.Put(rs)
}

// complete records one leg's response, waking the handler once the quorum
// (or every leg) is in, and finalizing when this was the last leg of an
// already-answered read.
func (rs *readState) complete(r readResp) {
	rs.mu.Lock()
	rs.resps = append(rs.resps, r)
	rs.don++
	if r.err == nil {
		rs.succ++
	}
	signal := !rs.signaled && (rs.succ >= rs.quorum || rs.don == rs.total)
	if signal {
		rs.signaled = true
	}
	fin := rs.don == rs.total && rs.answered && !rs.finalized
	if fin {
		rs.finalized = true
	}
	rs.mu.Unlock()
	if signal {
		rs.at = time.Now()
		rs.waiter <- struct{}{}
	}
	if fin {
		rs.finalize()
		rs.release()
	}
}

// answer computes the handler's verdict after waiter fires: the newest
// version among the first quorum successful responses in arrival order
// (exactly the v1 channel loop). ok is false when every leg finished
// without reaching the quorum. When all legs have already landed the
// handler inherits the finalize pass (finalizeNow) — on a failed read it
// does not run, matching v1, where the detector never saw failed reads.
func (rs *readState) answer() (best kvstore.Version, found, ok, finalizeNow bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	succ := 0
	for _, x := range rs.resps {
		if x.err != nil {
			continue
		}
		succ++
		if x.found && (!found || x.v.Seq > best.Seq) {
			best, found = x.v, true
		}
		if succ == rs.quorum {
			break
		}
	}
	if succ < rs.quorum {
		return kvstore.Version{}, false, false, false
	}
	rs.answered = true
	rs.returned = best
	if rs.don == rs.total && !rs.finalized {
		rs.finalized = true
		finalizeNow = true
	}
	return best, found, true, finalizeNow
}

// finalize runs the asynchronous staleness detector and (when enabled)
// read repair over the complete response set — a direct port of the v1
// finishRead. It runs exactly once per successful read, after the last leg
// landed and the handler answered; by then resps is immutable.
func (rs *readState) finalize() {
	newest := rs.returned
	for _, x := range rs.resps {
		if x.err == nil && x.found && x.v.Seq > newest.Seq {
			newest = x.v
		}
	}
	if newest.Seq > rs.returned.Seq {
		rs.n.detectorFlags.Add(1)
	}
	if !rs.n.params.ReadRepair || newest.Seq == 0 {
		return
	}
	for _, x := range rs.resps {
		if x.err == nil && x.v.Seq < newest.Seq {
			if _, _, err := rs.view.peers[x.node].Apply(newest); err == nil {
				rs.n.readRepairs.Add(1)
			}
		}
	}
}

// --- coordinated-write state --------------------------------------------

// writeState collects one coordinated write's fan-out acks. It replaces
// the per-op buffered ack channel: the waiter fires exactly once — when
// the quorum is reached or every leg has answered — and the struct is
// pooled, released by whichever of {last leg, handler} finishes second,
// so a straggler leg on a send-to-all write can never touch a recycled
// struct.
type writeState struct {
	quorum, total int
	waiter        chan struct{}
	// at is the instant the waiter was signaled (see readState.at).
	at time.Time

	mu          sync.Mutex
	got, don    int
	signaled    bool
	handlerDone bool
}

var writeStatePool = sync.Pool{New: func() any {
	return &writeState{waiter: make(chan struct{}, 1)}
}}

func newWriteState(quorum, total int) *writeState {
	ws := writeStatePool.Get().(*writeState)
	ws.quorum, ws.total = quorum, total
	return ws
}

// ack records one leg's outcome, waking the handler once the quorum (or
// every leg) is in. Exactly one of the last leg and finish releases the
// struct: both decide under the mutex, so exactly one critical section
// observes don == total && handlerDone both true.
func (ws *writeState) ack(ok bool) {
	ws.mu.Lock()
	ws.don++
	if ok {
		ws.got++
	}
	signal := !ws.signaled && (ws.got >= ws.quorum || ws.don == ws.total)
	if signal {
		ws.signaled = true
	}
	release := ws.don == ws.total && ws.handlerDone
	ws.mu.Unlock()
	if signal {
		ws.at = time.Now()
		ws.waiter <- struct{}{}
	}
	if release {
		ws.release()
	}
}

// finish returns the quorum verdict after waiter fired. Handlers call it
// exactly once; it releases the state when every leg has already answered
// (otherwise the last straggler leg does).
func (ws *writeState) finish() bool {
	ws.mu.Lock()
	ok := ws.got >= ws.quorum
	ws.handlerDone = true
	release := ws.don == ws.total
	ws.mu.Unlock()
	if release {
		ws.release()
	}
	return ok
}

func (ws *writeState) release() {
	ws.quorum, ws.total, ws.got, ws.don = 0, 0, 0, 0
	ws.signaled, ws.handlerDone = false, false
	ws.at = time.Time{}
	writeStatePool.Put(ws)
}

// awaitWrite waits for ws's quorum verdict and answers the client for the
// write assigned seq. CoordMs runs from start to the instant the W-th ack
// landed, so a key harvested after a slower one in a batch still reports
// its own quorum time. A write without a verdict when limit fires (nil
// never does) fails as a quorum failure; its legs run on, and a goroutine
// takes the verdict so ws is released as usual.
func (n *Node) awaitWrite(ws *writeState, seq uint64, start time.Time, limit <-chan time.Time) (PutResponse, *opError) {
	select {
	case <-ws.waiter:
	case <-limit:
		go func() { <-ws.waiter; ws.finish() }()
		n.failedOps.Add(1)
		return PutResponse{}, errQuorumFailed("server: write quorum not reached in time")
	}
	committed := ws.at
	if !ws.finish() {
		n.failedOps.Add(1)
		return PutResponse{}, errQuorumFailed("server: write quorum not reached")
	}
	return PutResponse{
		Seq:               seq,
		CommittedUnixNano: committed.UnixNano(),
		CoordMs:           float64(committed.Sub(start)) / float64(time.Millisecond),
		Node:              n.id,
	}, nil
}

// awaitRead waits for rs's quorum and answers the client with the newest
// version among the first R successful responses, timed like awaitWrite.
func (n *Node) awaitRead(rs *readState, start time.Time) (GetResponse, *opError) {
	<-rs.waiter
	answered := rs.at
	best, found, ok, finalizeNow := rs.answer()
	if !ok {
		// The waiter only fired with succ < quorum because every leg had
		// answered, so nothing can still touch rs: release it here.
		n.failedOps.Add(1)
		rs.release()
		return GetResponse{}, errQuorumFailed("server: read quorum not reached")
	}
	// A tombstone wins the newest-of-R comparison like any version — that is
	// what makes a delete stick against slower live writes — but the client
	// sees the key as absent. Seq is still reported so callers can observe
	// the delete's version (and tests can assert tombstone durability).
	resp := GetResponse{
		Found:   found && !best.Tombstone,
		Seq:     best.Seq,
		Value:   best.Value,
		CoordMs: float64(answered.Sub(start)) / float64(time.Millisecond),
		Node:    n.id,
	}
	// The staleness-detector / read-repair pass over the complete response
	// set (the v1 finishRead) runs on whichever of {last leg, handler} gets
	// there last; when it falls to the handler with read repair enabled it
	// moves to a goroutine so repair RPCs never delay the response.
	if finalizeNow {
		if n.params.ReadRepair {
			go func() {
				rs.finalize()
				rs.release()
			}()
		} else {
			rs.finalize()
			rs.release()
		}
	}
	return resp, nil
}
